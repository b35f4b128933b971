// pivot_shell: an interactive Pivot Tracing frontend against a live
// (simulated) Hadoop cluster — the "one-off queries for interactive
// debugging" usage mode of §1.
//
// A mixed workload (HDFS readers, HBase gets/scans, a looping MapReduce job)
// runs on an 8-host cluster. The shell advances simulated time between
// commands, so each `advance` gathers more data for your standing queries.
//
// Usage:  ./build/examples/pivot_shell            (interactive)
//         echo "..." | ./build/examples/pivot_shell   (scripted)
//
// Commands:
//   install <query on one line>   compile + weave a query, print its advice
//   explain <query on one line>   install the §4 counting shadow instead
//   advance <seconds>             run the workload forward
//   results <id>                  cumulative results of a query
//   series <id>                   per-second results of a query
//   uninstall <id>                remove a query
//   tracepoints                   list the cluster's tracepoint vocabulary
//   queries                       list installed queries
//   status [json]                 operational dump: query lifecycle, agent
//                                 health, bus traffic, telemetry registry
//   help / quit
//
// The vocabulary includes the self-telemetry meta-tracepoints, so the shell
// can monitor Pivot Tracing with Pivot Tracing:
//   install From b In Baggage.Serialize GroupBy b.queryId Select b.queryId, SUM(b.bytes)

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "src/analysis/reachability.h"
#include "src/common/strings.h"
#include "src/hadoop/cluster.h"

using namespace pivot;

namespace {

struct Shell {
  HadoopCluster cluster;
  int64_t now_s = 0;
  std::vector<uint64_t> installed;

  std::vector<std::unique_ptr<HdfsReadWorkload>> hdfs_clients;
  std::vector<std::unique_ptr<HbaseWorkload>> hbase_clients;
  std::unique_ptr<MapReduceWorkload> mr;

  static HadoopClusterConfig Config() {
    HadoopClusterConfig config;
    config.worker_hosts = 8;
    config.dataset_files = 300;
    config.seed = 1015;
    return config;
  }

  Shell() : cluster(Config()) {
    constexpr int64_t kHorizon = 3600 * kMicrosPerSecond;
    SimWorld* world = cluster.world();
    // Background workload mix.
    for (int i = 0; i < 2; ++i) {
      SimProcess* proc = cluster.AddClient(cluster.worker(static_cast<size_t>(i)), "FSread4m");
      hdfs_clients.push_back(std::make_unique<HdfsReadWorkload>(
          proc, cluster.namenode(), 4 << 20, 20 * kMicrosPerMilli, false,
          11 + static_cast<uint64_t>(i)));
      hdfs_clients.back()->Start(kHorizon);
    }
    for (int i = 0; i < 2; ++i) {
      SimProcess* proc = cluster.AddClient(cluster.worker(static_cast<size_t>(2 + i)), "Hget");
      hbase_clients.push_back(std::make_unique<HbaseWorkload>(
          proc, cluster.hbase().servers(), HbaseWorkload::Op::kGet, 5 * kMicrosPerMilli,
          21 + static_cast<uint64_t>(i)));
      hbase_clients.back()->Start(kHorizon);
    }
    SimProcess* scan_proc = cluster.AddClient(cluster.worker(4), "Hscan");
    hbase_clients.push_back(std::make_unique<HbaseWorkload>(
        scan_proc, cluster.hbase().servers(), HbaseWorkload::Op::kScan, 50 * kMicrosPerMilli,
        31));
    hbase_clients.back()->Start(kHorizon);

    SimProcess* job_client = cluster.AddClient(cluster.master_host(), "MRsort10g");
    mr = std::make_unique<MapReduceWorkload>(job_client, cluster.mapreduce(), "MRsort10g",
                                             128 << 20, cluster.config().mapreduce);
    mr->Start(kHorizon);
    world->StartAgentFlushLoop(kHorizon);
  }

  void Advance(int64_t seconds) {
    now_s += seconds;
    cluster.world()->RunUntil(now_s * kMicrosPerSecond);
    printf("[t=%llds] advanced %lld simulated second(s)\n",
           static_cast<long long>(now_s), static_cast<long long>(seconds));
  }

  void Install(const std::string& text, bool explain, bool force) {
    Frontend* frontend = cluster.world()->frontend();
    InstallOptions options;
    options.force = force;
    Result<uint64_t> q =
        explain ? frontend->InstallExplain(text) : frontend->Install(text, options);
    if (!q.ok()) {
      printf("error: %s\n", q.status().ToString().c_str());
      return;
    }
    installed.push_back(*q);
    printf("installed query %llu%s\n", static_cast<unsigned long long>(*q),
           explain ? " (explain/counting mode)" : "");
    const CompiledQuery* compiled = frontend->compiled(*q);
    printf("%s", compiled->Explain().c_str());
    analysis::QueryLintResult lint =
        analysis::QueryLinter().Lint(*q, compiled->advice, compiled->plan);
    printf("  baggage cost: %s\n", analysis::BaggageCostName(lint.cost));
  }

  void Lint(const std::string& text) {
    Result<analysis::QueryLintResult> lint = cluster.world()->frontend()->Lint(text);
    if (!lint.ok()) {
      printf("error: %s\n", lint.status().ToString().c_str());
      return;
    }
    if (lint->report.empty()) {
      printf("clean: no diagnostics\n");
    } else {
      printf("%s\n", lint->report.ToString().c_str());
    }
    printf("baggage cost: %s\n", analysis::BaggageCostName(lint->cost));
    if (lint->report.has_errors()) {
      printf("verdict: REJECT (install would fail)\n");
    } else if (lint->report.has_warnings()) {
      printf("verdict: warn (install needs --force)\n");
    } else {
      printf("verdict: ok\n");
    }
  }

  void Results(uint64_t id) {
    auto rows = cluster.world()->frontend()->Results(id);
    if (rows.empty()) {
      printf("(no results yet — try `advance 5`)\n");
      return;
    }
    for (const auto& row : rows) {
      printf("  %s\n", row.ToString().c_str());
    }
  }

  void Series(uint64_t id) {
    auto series = cluster.world()->frontend()->Series(id);
    if (series.empty()) {
      printf("(no results yet — try `advance 5`)\n");
      return;
    }
    for (const auto& [ts, rows] : series) {
      printf("  t=%llds:\n", static_cast<long long>(ts / kMicrosPerSecond));
      for (const auto& row : rows) {
        printf("    %s\n", row.ToString().c_str());
      }
    }
  }
};

constexpr char kHelp[] =
    "commands:\n"
    "  install <query>     e.g. install From incr In DataNodeMetrics.incrBytesRead"
    " GroupBy incr.host Select incr.host, SUM(incr.delta)\n"
    "  explain <query>     install the tuple-counting shadow of a query\n"
    "  lint <query>        static analysis only: diagnostics + baggage cost,\n"
    "                      nothing is installed (docs/ANALYSIS.md)\n"
    "                      (install --force overrides warning-level findings)\n"
    "  advance <seconds>   run the simulated workload forward\n"
    "  results <id>        cumulative results\n"
    "  series <id>         per-second results\n"
    "  uninstall <id>      remove a query\n"
    "  tracepoints         list the tracepoint vocabulary\n"
    "  topology            system propagation graph + audit (PT302/303/304)\n"
    "  queries             list installed query ids\n"
    "  status [json]       query lifecycle + agent health + bus + telemetry\n"
    "  help, quit\n";

}  // namespace

int main() {
  Shell shell;
  printf("Pivot Tracing shell — 8-host simulated Hadoop cluster with a live workload.\n%s",
         kHelp);

  std::string line;
  while (true) {
    printf("pivot> ");
    fflush(stdout);
    if (!std::getline(std::cin, line)) {
      break;
    }
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) {
      continue;
    }
    if (cmd == "quit" || cmd == "exit") {
      break;
    }
    if (cmd == "help") {
      printf("%s", kHelp);
    } else if (cmd == "advance") {
      int64_t seconds = 1;
      in >> seconds;
      shell.Advance(seconds > 0 ? seconds : 1);
    } else if (cmd == "install" || cmd == "explain" || cmd == "lint") {
      std::string rest;
      std::getline(in, rest);
      bool force = false;
      size_t start = rest.find_first_not_of(' ');
      if (start != std::string::npos && rest.compare(start, 8, "--force ") == 0) {
        force = true;
        rest = rest.substr(start + 8);
      }
      if (cmd == "lint") {
        shell.Lint(rest);
      } else {
        shell.Install(rest, cmd == "explain", force);
      }
    } else if (cmd == "results" || cmd == "series" || cmd == "uninstall") {
      uint64_t id = 0;
      in >> id;
      if (cmd == "results") {
        shell.Results(id);
      } else if (cmd == "series") {
        shell.Series(id);
      } else {
        Status s = shell.cluster.world()->frontend()->Uninstall(id);
        printf("%s\n", s.ok() ? "uninstalled" : s.ToString().c_str());
      }
    } else if (cmd == "tracepoints") {
      for (const auto& name : shell.cluster.world()->schema()->Names()) {
        const Tracepoint* tp = shell.cluster.world()->schema()->Find(name);
        printf("  %-36s exports: %s\n", name.c_str(), StrJoin(tp->def().exports, ", ").c_str());
      }
    } else if (cmd == "topology") {
      const analysis::PropagationRegistry& graph = shell.cluster.world()->propagation();
      printf("%s", graph.RenderText().c_str());
      analysis::Report audit = analysis::AuditTopology(graph);
      if (audit.empty()) {
        printf("audit: clean (every boundary declared, every component reachable)\n");
      } else {
        printf("%s", audit.ToString().c_str());
      }
    } else if (cmd == "queries") {
      for (uint64_t id : shell.installed) {
        printf("  %llu\n", static_cast<unsigned long long>(id));
      }
    } else if (cmd == "status") {
      std::string mode;
      in >> mode;
      Frontend* frontend = shell.cluster.world()->frontend();
      if (mode == "json") {
        printf("%s\n", frontend->StatusReportJson().c_str());
      } else {
        printf("%s", frontend->StatusReport().c_str());
      }
    } else {
      printf("unknown command '%s' — try `help`\n", cmd.c_str());
    }
  }
  printf("bye\n");
  return 0;
}
