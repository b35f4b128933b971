// Shared pieces of the end-to-end benchmark: run options, the metric report,
// clocks and process counters, the fixed application work every request path
// calls, and the small statistics helpers the workloads use.

#ifndef PIVOT_PERFBENCH_COMMON_H_
#define PIVOT_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;  // Where the traced run writes its span buffers.
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run reports. `e2e` is printed with --trace 0, `layer` with
// --trace 1; `errors` go to stderr.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> errors;

  // Counts one checked operation; a false `ok` is a failure with `what`.
  void Check(bool ok, const std::string& what);
  void AddE2e(std::string name, double value, std::string unit);
  void AddLayer(std::string name, double value, std::string unit);
};

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time (user + system) in seconds.
double CpuSeconds();
// Peak resident set size of the process in MB.
double PeakRssMb();

// Moves the calling thread to CPU (slot + epoch) mod n of the n CPUs the
// process started with. Threads call it with a new epoch once per interval,
// so each run spends equal time on every CPU. On a shared host one virtual
// CPU can run ~1.5x slower than the others for minutes, and a thread the
// scheduler leaves there would make the whole run slow.
void RotateCpu(int slot, uint64_t epoch);
// The application's own work at one hop: a fixed number of dependent
// integer operations in one out-of-line function, no clock calibration.
// Every request path calls it once per hop.
uint64_t AppWork(uint64_t x);

// Deterministic per-request input: a 64-bit hash of (seed, stream, index).
uint64_t InputHash(uint64_t seed, uint64_t stream, uint64_t index);

// Linear-interpolated quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

// Median of a small sample.
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Current value of a global telemetry counter / histogram sum and count.
uint64_t CounterValue(std::string_view name);
uint64_t HistogramSum(std::string_view name);
uint64_t HistogramCount(std::string_view name);

// Safe ratio: 0 when the denominator is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace perfbench

#endif  // PIVOT_PERFBENCH_COMMON_H_
