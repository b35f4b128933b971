// Tracepoints and the dynamic-instrumentation registry (§3, §5).
//
// A tracepoint identifies a location in system code where Pivot Tracing can
// run instrumentation, and exports named variables. In the paper, advice is
// woven into JVM bytecode at runtime; C++ has no portable online method-body
// rewriting, so this implementation compiles invocation *sites* into the code
// and attaches advice at runtime behind a single atomic pointer load (see
// DESIGN.md §1). The paper's key property is preserved: an unwoven tracepoint
// costs one relaxed load + branch, and woven advice can be installed and
// removed at any time without restarting the system.

#ifndef PIVOT_SRC_CORE_TRACEPOINT_H_
#define PIVOT_SRC_CORE_TRACEPOINT_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_ordinal.h"
#include "src/core/advice.h"
#include "src/core/context.h"
#include "src/core/exports.h"
#include "src/core/plan.h"
#include "src/core/symbol.h"
#include "src/core/tuple.h"
#include "src/core/value.h"

namespace pivot {

// The tracepoint specification: "Tracepoint definitions are not part of the
// system code, but are rather instructions on where and how to change the
// system to obtain the exported identifiers" (§2.2).
struct TracepointDef {
  std::string name;                   // e.g. "DataNodeMetrics.incrBytesRead".
  std::vector<std::string> exports;   // Declared exports, e.g. {"delta"}.

  // Node in the propagation graph whose code this tracepoint fires in
  // (e.g. "NN", "DN", "client"). Empty means unanchored — tracepoints that
  // fire in several components stay empty and are skipped by the
  // reachability passes (src/analysis/causality_graph.h).
  std::string component;
};

// Immutable snapshot of the plans woven at one tracepoint, in weave order.
// Swapped atomically by the registry; readers only ever see complete sets.
// Each plan was compiled once, when its query was woven (src/core/plan.h),
// and appears once however many queries share it.
using AdviceSet = std::vector<AdvicePlan::Ptr>;

class TracepointRegistry;

// A tracepoint instance. Created and owned by a TracepointRegistry; system
// code holds stable `Tracepoint*` and calls Invoke at the instrumented site.
class Tracepoint {
 public:
  explicit Tracepoint(TracepointDef def) : def_(std::move(def)) {}

  const TracepointDef& def() const { return def_; }
  const std::string& name() const { return def_.name; }

  // True if any advice is currently woven.
  bool enabled() const { return advice_.load(std::memory_order_relaxed) != nullptr; }

  // Plans in the current advice set; a plan shared by queries counts once.
  size_t woven_plans() const {
    const AdviceSet* set = advice_.load(std::memory_order_acquire);
    return set == nullptr ? 0 : set->size();
  }

  // Fires the tracepoint for the execution in `ctx` with the given exported
  // variables. Fast path (no advice, no trace recording): one atomic load and
  // a branch — the "zero-probe-effect" analogue measured in Table 5.
  //
  // The slow path runs each woven plan against an ExportView of `exports`
  // and the default exports (host, timestamp/time, procid, procname,
  // tracepoint; §3), read in place, and records the materialized tuple when
  // a ground-truth trace is recording.
  void Invoke(ExecutionContext* ctx, const std::vector<Tuple::Field>& exports) const {
    const AdviceSet* set = advice_.load(std::memory_order_acquire);
    if (set == nullptr && (ctx == nullptr || ctx->recorder() == nullptr)) {
      return;
    }
    InvokeSlow(ctx, set, exports);
  }

  // ---- Self-telemetry (docs/OBSERVABILITY.md) ----
  //
  // Counted on the slow path only, in per-thread slots (ThreadSlot), each on
  // cache lines of its own and off the line that holds the advice pointer,
  // so threads firing one tracepoint write no shared line. Reads sum the
  // slots.

  // Invocations that executed at least one woven advice program (exact).
  uint64_t woven_fires() const { return SumSlots(&CounterSlot::woven_fires); }
  // Total wall-clock nanoseconds spent executing woven advice (exact;
  // measured on the slow path only, where advice cost dwarfs the clock read).
  uint64_t advice_nanos() const { return SumSlots(&CounterSlot::advice_nanos); }

 private:
  friend class TracepointRegistry;

  // Per-thread counters, one slot per ThreadSlot.
  struct alignas(kCacheLine) CounterSlot {
    std::atomic<uint64_t> woven_fires{0};   // fetch_add: exact even when shared.
    std::atomic<uint64_t> advice_nanos{0};  // fetch_add: exact even when shared.
  };
  CounterSlot& Slot() const { return slots_[ThreadSlot()]; }
  uint64_t SumSlots(std::atomic<uint64_t> CounterSlot::*count) const {
    uint64_t total = 0;
    for (const CounterSlot& slot : slots_) {
      total += (slot.*count).load(std::memory_order_relaxed);
    }
    return total;
  }

  void InvokeSlow(ExecutionContext* ctx, const AdviceSet* set,
                  const std::vector<Tuple::Field>& exports) const;

  TracepointDef def_;
  std::atomic<const AdviceSet*> advice_{nullptr};
  mutable std::array<CounterSlot, kThreadSlots> slots_{};
};

// One row of TracepointRegistry::StatsSnapshot().
struct TracepointStatsRow {
  std::string name;
  uint64_t woven_fires = 0;
  uint64_t advice_nanos = 0;
};

// Owns tracepoints and manages weaving. One registry per instrumented system
// (the simulated cluster shares one; a real process would own one).
//
// Thread-safe. Every advice set ever published is kept until registry
// destruction rather than reference-counted, trading a small leak for a
// single-load fast path (the standard quiescence shortcut; weaving is rare
// and human-driven). A set holds only shared plan pointers, so a superseded
// set costs one pointer per plan, never a plan copy.
class TracepointRegistry {
 public:
  TracepointRegistry() = default;
  ~TracepointRegistry();

  TracepointRegistry(const TracepointRegistry&) = delete;
  TracepointRegistry& operator=(const TracepointRegistry&) = delete;

  // Defines a new tracepoint ("they can be defined and installed at any point
  // in time", §2.2). Fails with kAlreadyExists if the name is taken.
  Result<Tracepoint*> Define(TracepointDef def);

  // Returns the named tracepoint or nullptr.
  Tracepoint* Find(std::string_view name) const;

  // All defined tracepoint names, sorted.
  std::vector<std::string> Names() const;

  // Weaves a query's advice: each element names a tracepoint and the advice
  // to install there. Advice naming tracepoints this registry does not (yet)
  // define is retained, uncompiled, and weaves automatically when the
  // tracepoint is defined (deferred weaving — standing queries apply to
  // subsystems that initialize later). Fails atomically if the query id is
  // already woven or any advice is null.
  //
  // A program that packs a bag shares the plan of an identical program that
  // is already woven at the same tracepoint under the same first bag key, so
  // each fire packs the bag once (the frontend gives identical pack stages
  // one key). Programs are compared only when tracepoint and key match; a
  // different program under a live key gets a plan of its own.
  Status WeaveQuery(uint64_t query_id,
                    const std::vector<std::pair<std::string, Advice::Ptr>>& advice);

  // Removes all advice woven for `query_id`. Idempotent. A shared pack plan
  // stays while any other woven query holds it.
  void UnweaveQuery(uint64_t query_id);

  // Ids of currently-woven queries, sorted.
  std::vector<uint64_t> WovenQueries() const;

  // Per-tracepoint dispatch statistics (woven fires, advice time), sorted by
  // name — the data behind Table 5's per-tracepoint overhead accounting.
  std::vector<TracepointStatsRow> StatsSnapshot() const;

 private:
  // One piece of a query's advice as woven: the tracepoint, the program and
  // the plan it runs as (compiled for it, or shared with an identical pack).
  // The plan is bound only once this registry defines the tracepoint, so a
  // process that hosts none of a query's tracepoints compiles nothing.
  struct WovenAdvice {
    std::string tracepoint;
    Advice::Ptr advice;
    AdvicePlan::Ptr plan;  // Null until the tracepoint is defined.
  };

  // Binds a plan to each of a query's unbound `entries` whose tracepoint is
  // defined. The query's bag schemas are built only if one is bound.
  void BindLocked(std::vector<WovenAdvice>* entries);

  // The plan for `advice` at `tp_name`: the plan of a woven identical
  // program packing the same first bag there, or a freshly compiled one.
  // A compiled plan binds `schemas`, the query's bag schemas.
  AdvicePlan::Ptr ShareOrCompileLocked(const std::string& tp_name, const Advice::Ptr& advice,
                                       const AdvicePlan::BagSchemas& schemas);

  // Publishes a fresh advice set for `tp` gathered from woven_.
  void RebuildLocked(Tracepoint* tp);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Tracepoint>, std::less<>> tracepoints_;
  // query id -> its woven advice, each plan compiled or shared once its
  // tracepoint is defined.
  std::map<uint64_t, std::vector<WovenAdvice>> woven_;
  // Every advice set ever published (see class comment).
  std::vector<std::unique_ptr<const AdviceSet>> published_;
};

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_TRACEPOINT_H_
