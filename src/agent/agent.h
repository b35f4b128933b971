// PTAgent: the per-process Pivot Tracing agent (§5 "Agent").
//
// "A Pivot Tracing agent thread runs in every Pivot Tracing-enabled process
// and awaits instruction via central pub/sub server to weave advice to
// tracepoints. Tuples emitted by advice are accumulated by the local Pivot
// Tracing agent, which performs partial aggregation of tuples according to
// their source query. Agents publish partial query results at a configurable
// interval — by default, one second."
//
// The agent implements EmitSink (wired into the process's ProcessRuntime), so
// advice Emit ops feed it directly in-process. Flush() publishes the interval
// report; the simulator calls it once per simulated second, a real deployment
// would drive it from a timer thread.
//
// Intake is sharded: each emitting thread lands in one of N emission shards
// (own lock, own per-query partial ResultSet), so concurrent tracepoint
// fires on different threads never contend. Flush swaps each shard's sets
// out for empty spares under the shard lock, then merges them set to set
// through ResultSet::Absorb with the lock released — sound because every
// aggregation function has a combiner (Table 3; "for Count, the combiner is
// Sum") — and ships the whole interval as one ReportBatch frame
// (docs/PERFORMANCE.md, "Emission path").

#ifndef PIVOT_SRC_AGENT_AGENT_H_
#define PIVOT_SRC_AGENT_AGENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/agent/protocol.h"
#include "src/bus/message_bus.h"
#include "src/common/thread_ordinal.h"
#include "src/core/aggregation.h"
#include "src/core/context.h"
#include "src/core/tracepoint.h"

namespace pivot {

namespace analysis {
class PropagationRegistry;
}  // namespace analysis

// After this many consecutive empty flushes for a query, the agent publishes
// a heartbeat so the frontend can tell a quiet query from a dead agent, then
// restarts the count (docs/OBSERVABILITY.md).
inline constexpr uint64_t kFlushesPerSuppressedHeartbeat = 10;

class PTAgent : public EmitSink {
 public:
  // `registry` is the process's tracepoint registry the agent weaves into;
  // `info` identifies the process in reports. The agent subscribes to the
  // command topic immediately. `shard_count` sizes the emission shard array
  // (0 = one shard per hardware thread); 1 reproduces the single-lock
  // intake and is the baseline the bench compares against.
  PTAgent(MessageBus* bus, TracepointRegistry* registry, ProcessInfo info, size_t shard_count = 0);
  ~PTAgent() override;

  PTAgent(const PTAgent&) = delete;
  PTAgent& operator=(const PTAgent&) = delete;

  // Optional: the process runtime this agent serves. Enables self-telemetry —
  // weave-ack/heartbeat timestamps from the runtime clock, and firing the
  // `PTAgent.Flush` meta-tracepoint after each flush (runtime->meta).
  void set_runtime(ProcessRuntime* runtime) { runtime_ = runtime; }

  // Optional: the deployment's propagation graph, consulted by weave
  // re-verification (PT301/PT305 — an agent refuses advice whose joins the
  // topology cannot satisfy). Null skips those passes. Not owned.
  void set_propagation(const analysis::PropagationRegistry* propagation) {
    propagation_ = propagation;
  }

  // EmitSink: advice output lands here and is partially aggregated (or
  // buffered, for streaming queries) per source query. Takes only the calling
  // thread's emission-shard lock — concurrent emitters on different threads
  // never contend with each other or with the control plane.
  void EmitTuple(uint64_t query_id, const Tuple& t) override;

  // Publishes one report per active query covering the interval ending at
  // `now_micros`, then resets interval state. Queries with nothing to report
  // publish nothing (quiet processes stay quiet on the bus) but count the
  // suppression and heartbeat every kFlushesPerSuppressedHeartbeat.
  void Flush(int64_t now_micros);

  // ---- Statistics (used by the overhead/traffic benches) ----

  // Reports published, tuples emitted for queries the agent does not track
  // and weaves refused by re-verification (tampered or corrupted advice) are
  // counted only by the agent.reports, agent.tuples_dropped and
  // agent.weaves_refused counters (docs/OBSERVABILITY.md).

  // Tuples handed to the agent by advice since construction. Each flush
  // adds them to agent.tuples_emitted.
  uint64_t emitted_tuples() const;
  // Tuples shipped to the frontend in reports (post partial aggregation).
  uint64_t reported_tuples() const;

  // EmitTuple calls that found their shard lock held (try_lock failed and
  // had to block) — should stay ~0 when emitters outnumber shards only
  // transiently. Also counted by agent.emit_shard_contention.
  uint64_t shard_contentions() const;
  size_t shard_count() const { return shards_.size(); }

  const ProcessInfo& info() const { return info_; }

 private:
  void HandleCommand(const BusMessage& msg);

  // Control-plane view of one woven query, guarded by mu_. `results` holds
  // the interval's merged state: Flush absorbs every drained shard set into
  // it (the Table 3 combiner) and hands it to the report, so between flushes
  // it is empty.
  struct QueryState {
    explicit QueryState(const ResultPlan& plan) : results(plan) {}
    ResultSet results;
    uint64_t reports_suppressed = 0;         // Empty flushes, total.
    uint64_t suppressed_since_heartbeat = 0; // Empty flushes since last heartbeat.
  };

  // One query's partial results in one shard. Emitters accumulate into
  // `live` under the shard lock. Flush swaps a non-empty `live` with the
  // empty `spare` under that lock — O(1) moves of a few vectors, so it
  // allocates and interns nothing — and merges the spare's contents after
  // releasing it, leaving the spare empty again. Only Flush, under mu_,
  // touches `spare`.
  struct Slot {
    explicit Slot(const ResultSet& like) : live(like.EmptyLike()), spare(like.EmptyLike()) {}
    ResultSet live;
    ResultSet spare;
  };

  // One emission shard: its own lock plus per-query partial results. Threads
  // map onto shards by the process-wide ThreadOrdinal, so two threads only
  // share a shard when there are more emitting threads than shards; each
  // shard starts a cache line of its own.
  // Lock ordering: mu_ before shard.mu; EmitTuple takes only shard.mu. The
  // map itself changes only under both locks (weave, unweave).
  struct alignas(kCacheLine) Shard {
    std::mutex mu;
    std::map<uint64_t, Slot> queries;
    // Tuples this shard took in. Written only under `mu` (a plain load and
    // store, no shared read-modify-write on the emit path), read anywhere.
    std::atomic<uint64_t> emitted{0};
    uint64_t emitted_published = 0;  // Part of `emitted` in telemetry; Flush, under mu_.
  };

  MessageBus* bus_;
  TracepointRegistry* registry_;
  ProcessInfo info_;
  ProcessRuntime* runtime_ = nullptr;
  const analysis::PropagationRegistry* propagation_ = nullptr;
  MessageBus::SubscriberId subscription_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex mu_;
  std::map<uint64_t, QueryState> queries_;
  std::atomic<uint64_t> reported_total_{0};
  std::atomic<uint64_t> shard_contentions_{0};
};

}  // namespace pivot

#endif  // PIVOT_SRC_AGENT_AGENT_H_
