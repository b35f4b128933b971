// SimWorld: hosts, processes, and the Pivot Tracing control plane wiring for
// a simulated cluster.
//
// A SimHost owns the machine-level resources (disk, NIC links). A SimProcess
// models one OS process on a host: it has its own TracepointRegistry (each
// process weaves advice independently, like the paper's per-JVM agents), its
// own PT agent wired in as the process's EmitSink, and a ProcessRuntime that
// stamps default tracepoint exports (host, procname, ...) with simulated
// time. SimWorld owns everything, runs the agents' once-per-second report
// flushes, and hands out request contexts.

#ifndef PIVOT_SRC_SIMSYS_SIM_WORLD_H_
#define PIVOT_SRC_SIMSYS_SIM_WORLD_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/agent/agent.h"
#include "src/agent/frontend.h"
#include "src/analysis/causality_graph.h"
#include "src/bus/message_bus.h"
#include "src/core/context.h"
#include "src/core/tracepoint.h"
#include "src/simsys/sim_env.h"
#include "src/simsys/sim_resource.h"

namespace pivot {

// Shared context handle used throughout the simulator: simulated executions
// pass through continuation callbacks, which std::function requires to be
// copyable, so contexts live on the heap.
using CtxPtr = std::shared_ptr<ExecutionContext>;

class SimWorld;

class SimHost {
 public:
  SimHost(SimEnvironment* env, std::string name, double disk_bytes_per_sec,
          double nic_bytes_per_sec);

  const std::string& name() const { return name_; }
  SimResource& disk() { return disk_; }
  SimResource& nic_out() { return nic_out_; }
  SimResource& nic_in() { return nic_in_; }

  // Total NIC traffic (both directions) — Fig 8b / Fig 9c.
  double NetworkBytesInSecond(int64_t sec) const;

 private:
  std::string name_;
  SimResource disk_;
  SimResource nic_out_;
  SimResource nic_in_;
};

class SimProcess {
 public:
  SimProcess(SimWorld* world, SimHost* host, std::string process_name, int64_t pid,
             std::string component = "");

  SimHost* host() { return host_; }
  const std::string& name() const { return runtime_.info.process_name; }
  // Propagation-graph node this process belongs to ("NN", "DN", "client", …);
  // empty for processes outside the modelled topology. Used to tag observed
  // boundary crossings (SimRpcCall's hops, SimWorld::Cross) and declare
  // instance-level edges.
  const std::string& component() const { return component_; }
  TracepointRegistry* registry() { return &registry_; }
  PTAgent* agent() { return agent_.get(); }
  ProcessRuntime* runtime() { return &runtime_; }
  SimWorld* world() { return world_; }

  // Defines a tracepoint in this process (asserts on duplicate names —
  // process construction is programmer-controlled).
  Tracepoint* DefineTracepoint(TracepointDef def);

  // GC / pause injection (Fig 9b's DN GC component): work scheduled through
  // DelayUntilRunnable is postponed past the pause.
  void PauseUntil(int64_t time_micros);
  int64_t paused_until() const { return paused_until_; }
  // Extra delay a task starting now would incur from a pause.
  int64_t PauseDelay() const;

 private:
  SimWorld* world_;
  SimHost* host_;
  std::string component_;
  TracepointRegistry registry_;
  ProcessRuntime runtime_;
  std::unique_ptr<PTAgent> agent_;
  int64_t paused_until_ = 0;
};

class SimWorld {
 public:
  SimWorld();

  SimEnvironment* env() { return &env_; }
  MessageBus* bus() { return &bus_; }
  Frontend* frontend() { return frontend_.get(); }

  // The schema registry aggregates every process's tracepoint definitions so
  // the frontend can validate queries; SimProcess::DefineTracepoint keeps it
  // in sync automatically.
  TracepointRegistry* schema() { return &schema_; }

  // The propagation graph for this deployment: components, declared causal
  // boundaries, observed crossings, tracepoint anchors. Deployments populate
  // it at construction; the frontend's install gate and every agent's weave
  // re-verification consult it (PT300-series reachability passes). Owned per
  // world so unrelated tests never pollute each other's topology audit.
  analysis::PropagationRegistry& propagation() { return propagation_; }
  const analysis::PropagationRegistry& propagation() const { return propagation_; }

  SimHost* AddHost(std::string name, double disk_bytes_per_sec, double nic_bytes_per_sec);
  // `component` names the process's propagation-graph node; empty keeps the
  // process outside the modelled topology (reachability checks skip it).
  SimProcess* AddProcess(SimHost* host, std::string process_name, std::string component = "");

  SimHost* FindHost(std::string_view name);
  const std::vector<std::unique_ptr<SimHost>>& hosts() const { return hosts_; }
  const std::vector<std::unique_ptr<SimProcess>>& processes() const { return processes_; }

  // Creates a fresh request context executing in `proc`, attached to the
  // ground-truth recorder when one is installed.
  CtxPtr NewRequest(SimProcess* proc);

  // In-memory hand-off of `ctx` from `from` to `to` (a queue, continuation or
  // join boundary of `kind`): observes the edge for the propagation audit and
  // moves the context to `to`. The baggage stays in memory; boundaries that
  // put it on the wire go through SimRpcCall.
  void Cross(const CtxPtr& ctx, SimProcess* from, SimProcess* to, const std::string& kind);

  // Installs a TraceRecorder capturing every tracepoint invocation (ground
  // truth for naive evaluation; adds overhead, off by default).
  void EnableRecording();
  TraceRecorder* recorder() { return recording_ ? &recorder_ : nullptr; }

  // Starts the once-per-simulated-second agent flush loop; runs until
  // `until_micros`.
  void StartAgentFlushLoop(int64_t until_micros);

  // Runs the simulation until `time_micros`.
  void RunUntil(int64_t time_micros) { env_.RunUntil(time_micros); }

 private:
  SimEnvironment env_;
  MessageBus bus_;
  TracepointRegistry schema_;
  analysis::PropagationRegistry propagation_;
  std::unique_ptr<Frontend> frontend_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::vector<std::unique_ptr<SimProcess>> processes_;
  int64_t next_pid_ = 1000;
  bool recording_ = false;
  TraceRecorder recorder_;
};

}  // namespace pivot

#endif  // PIVOT_SRC_SIMSYS_SIM_WORLD_H_
