// The benchmark's workloads and the control-plane helpers they share: timed
// flushes, dashboard polls and query installs, counter snapshots, and the
// assembly of the per-layer metric set every traced run prints.

#ifndef PIVOT_PERFBENCH_WORKLOADS_H_
#define PIVOT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/trace.h"
#include "src/agent/agent.h"
#include "src/agent/frontend.h"
#include "src/bus/message_bus.h"
#include "src/core/tracepoint.h"

namespace perfbench {

// §6.1 diagnosis session on the simulated Hadoop cluster.
Report RunHdfsDiag(const Options& opts);

enum class ThreadedShape { kRpcStorm, kBaggageChain };
// Real application threads in one process (rpc_storm, baggage_chain).
Report RunThreaded(const Options& opts, ThreadedShape shape);

// Timings of the control plane gathered during a measured window.
struct ControlStats {
  std::vector<double> flush_ms;        // Per interval: every agent's Flush.
  std::vector<double> agent_flush_ns;  // Per publishing Flush, minus bus callbacks.
  std::vector<double> callback_ns;     // Per publishing Flush: mean bus callback.
  std::vector<double> results_us;      // Per interval: one poll of every query.
  // Per query text, one sample per install. Queries differ in cost, so the
  // reported figure is the median over texts of each text's median.
  std::map<std::string, std::vector<double>> lint_ms;
  std::map<std::string, std::vector<double>> install_ms;
  std::map<std::string, std::vector<double>> weave_ms;  // install_ms minus lint_ms.
  uint64_t intervals = 0;

  // Appends `other`'s lint, install and weave samples.
  void AddInstalls(const ControlStats& other);
};

// Median over query texts of each text's median sample.
double MedianOverQueries(const std::map<std::string, std::vector<double>>& samples);

// Flushes every agent for the interval ending at `now_micros`; records the
// interval's wall time and, for each agent that published, its own time and
// the frontend's bus callback time (from the bus.callback_nanos counters).
void FlushInterval(const std::vector<pivot::PTAgent*>& agents, int64_t now_micros,
                   ControlStats* stats);

// One dashboard poll: Frontend::Results for each query. Returns total rows.
size_t PollResults(const pivot::Frontend& frontend, const std::vector<uint64_t>& queries,
                   ControlStats* stats);

// Lints, then installs `text`, recording lint, install and weave times. A
// rejected install is a failed operation in `report`. Returns the id or 0.
uint64_t TimedInstall(pivot::Frontend* frontend, const std::string& text, ControlStats* stats,
                      Report* report);
void TimedUninstall(pivot::Frontend* frontend, uint64_t query_id, Report* report);

// Monotonic counters of every layer, summed over the given registries and
// agents; two snapshots bracket a measured window.
struct Counters {
  uint64_t woven_fires = 0;
  uint64_t advice_nanos = 0;
  uint64_t emitted = 0;
  uint64_t reported = 0;
  uint64_t contentions = 0;
  uint64_t group_probes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t decode_errors = 0;
  uint64_t report_topic_bytes = 0;
  uint64_t frontend_tuples = 0;
  double cpu_s = 0;
  int64_t wall_ns = 0;

  static Counters Take(const std::vector<const pivot::TracepointRegistry*>& registries,
                       const std::vector<pivot::PTAgent*>& agents, const pivot::MessageBus& bus,
                       const pivot::Frontend& frontend);
  Counters Minus(const Counters& before) const;
  // Accumulates a delta (from Minus) into this one.
  void Add(const Counters& delta);
};

// Everything the per-layer metric set is computed from.
struct LayerInputs {
  Counters delta;            // Over the traced window.
  ControlStats control;      // Over the traced window (lint/install: whole run).
  TraceReduction spans;      // Over the traced window.
  double requests = 0;       // Requests completed in the traced window.
  double wire_bytes = 0;     // Baggage bytes that crossed a boundary in it.
  double wire_crossings = 0; // Boundary crossings in it.
  double sim_events = 0;     // Simulator events in it (hdfs_diag only).
  double app_us_per_req = 0;      // Same workload, no queries installed.
  double untraced_req_per_s = 0;  // Same setup, tracing off.
  double traced_req_per_s = 0;
};

// Appends the per-layer metrics, in the order BENCHMARK.json lists them.
void AddLayerMetrics(const LayerInputs& in, Report* report);

}  // namespace perfbench

#endif  // PIVOT_PERFBENCH_WORKLOADS_H_
