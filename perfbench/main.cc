// pt_bench: runs one workload of the end-to-end Pivot Tracing benchmark and
// prints its result as one JSON line (the last line of standard output).
//
//   pt_bench --workload hdfs_diag|rpc_storm|baggage_chain --seed N
//            --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced variant
// and prints the per-layer metrics. perfbench/run.py builds and invokes this.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/common.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: pt_bench --workload hdfs_diag|rpc_storm|baggage_chain --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n");
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opts->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      opts->trace = value == "1";
    } else if (flag == "--spans") {
      opts->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && opts->seconds >= 1 && opts->seconds <= 600;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) {
    v = 0;
  }
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : std::string("0");
}

void PrintResult(const Report& report, bool trace) {
  const std::vector<Metric>& metrics = trace ? report.layer : report.e2e;
  bool correct = report.failed == 0 && report.attempted > 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted > 0 ? report.attempted : 1);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + metrics[i].name + "\": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    Usage();
    return 2;
  }
  Report report;
  if (opts.workload == "hdfs_diag") {
    report = RunHdfsDiag(opts);
  } else if (opts.workload == "rpc_storm") {
    report = RunThreaded(opts, ThreadedShape::kRpcStorm);
  } else if (opts.workload == "baggage_chain") {
    report = RunThreaded(opts, ThreadedShape::kBaggageChain);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", opts.workload.c_str());
    Usage();
    return 2;
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  std::fprintf(stderr, "attempted=%llu failed=%llu failed_frac=%g\n",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed),
               Ratio(static_cast<double>(report.failed), static_cast<double>(report.attempted)));
  for (const Metric& m : opts.trace ? report.layer : report.e2e) {
    std::fprintf(stderr, "  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(report, opts.trace);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
