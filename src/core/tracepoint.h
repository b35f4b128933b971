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
// and appears once however many queries share it. A tracepoint owns its
// current set; a displaced set is retired and freed once no invocation can
// still read it (TracepointRegistry), and with the last set holding a plan
// goes the plan and its bag schemas.
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
  // Safe against a concurrent unweave: the read is in flight like a fire.
  size_t woven_plans() const {
    InFlight reading(Slot());
    const AdviceSet* set = advice_.load(std::memory_order_seq_cst);
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
    if (advice_.load(std::memory_order_acquire) == nullptr &&
        (ctx == nullptr || ctx->recorder() == nullptr)) {
      return;
    }
    InvokeSlow(ctx, exports);
  }

  // ---- Self-telemetry (docs/OBSERVABILITY.md) ----
  //
  // Counted on the slow path only, in per-thread slots (ThreadSlot), each on
  // cache lines of its own and off the line that holds the advice pointer,
  // so threads firing one tracepoint write no shared line. Reads sum the
  // slots.

  // Invocations that executed at least one woven advice program (exact).
  uint64_t woven_fires() const {
    return SumSlots(&CounterSlot::fires_in_flight, kInFlightBits);
  }
  // Total wall-clock nanoseconds spent executing woven advice (exact;
  // measured on the slow path only, where advice cost dwarfs the clock read).
  uint64_t advice_nanos() const { return SumSlots(&CounterSlot::advice_nanos, 0); }

 private:
  friend class TracepointRegistry;

  // fires_in_flight holds the slot's woven fires above its low kInFlightBits
  // bits and, in those bits, its reads of an advice set now in progress: a
  // count, not a flag, since threads beyond kThreadSlots share the slot and
  // a fire may re-enter another on its thread (at most 2^16 - 1 at once).
  // One word, so a fire leaves and counts itself in one fetch_add.
  static constexpr unsigned kInFlightBits = 16;
  static constexpr uint64_t kOneFire = uint64_t{1} << kInFlightBits;
  static constexpr uint64_t kInFlightMask = kOneFire - 1;

  // Per-thread counters, one slot per ThreadSlot; fetch_add keeps them exact
  // even when threads share a slot.
  struct alignas(kCacheLine) CounterSlot {
    std::atomic<uint64_t> fires_in_flight{0};
    std::atomic<uint64_t> advice_nanos{0};
  };
  CounterSlot& Slot() const { return slots_[ThreadSlot()]; }
  uint64_t SumSlots(std::atomic<uint64_t> CounterSlot::*count, unsigned shift) const {
    uint64_t total = 0;
    for (const CounterSlot& slot : slots_) {
      total += (slot.*count).load(std::memory_order_relaxed) >> shift;
    }
    return total;
  }

  // Marks `slot` in flight for a scope that loads advice_ after it starts,
  // and counts a woven fire when it ends if `fired` was set. The seq_cst
  // increment and the seq_cst load of advice_ that follows form a Dekker
  // pair with RebuildLocked's seq_cst store and the registry's seq_cst read
  // of the count: a reclaimer that reads 0 after displacing a set knows every
  // reader that loaded it has left (the release decrement orders the
  // reader's last use before the free).
  struct InFlight {
    explicit InFlight(CounterSlot& s) : slot(s) {
      slot.fires_in_flight.fetch_add(1, std::memory_order_seq_cst);
    }
    ~InFlight() {
      slot.fires_in_flight.fetch_add(fired ? kOneFire - 1 : ~uint64_t{0},
                                     std::memory_order_release);
    }
    InFlight(const InFlight&) = delete;
    InFlight& operator=(const InFlight&) = delete;
    CounterSlot& slot;
    bool fired = false;
  };

  void InvokeSlow(ExecutionContext* ctx, const std::vector<Tuple::Field>& exports) const;

  TracepointDef def_;
  // The current set as readers load it; owned by `current_`, which only the
  // registry touches, under its mutex.
  std::atomic<const AdviceSet*> advice_{nullptr};
  std::unique_ptr<const AdviceSet> current_;
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
// Thread-safe. A tracepoint owns only its current advice set. Publishing a
// new one retires the set it displaces. A pass at the end of every weave and
// unweave (the one that displaced the set, or a later one) frees a retired
// set once each of the tracepoint's counter slots has been seen with no
// invocation in flight since the set was displaced: every invocation that
// could have loaded it has returned (epoch-style reclamation, as in Fraser's
// "Practical lock-freedom" or userspace RCU, with per-slot in-flight counts
// for epochs). The unwoven fast path stays one load; a woven fire pays one
// more fetch_add on its own slot than counting itself did before (the mark;
// clearing it also counts the fire). Counted by `core.advice_sets_retired`
// and `core.advice_sets_freed`, so retired - freed is what is still held.
class TracepointRegistry {
 public:
  TracepointRegistry();
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

  // Publishes a fresh advice set for `tp` gathered from woven_ and retires
  // the set it displaces.
  void RebuildLocked(Tracepoint* tp);

  // Frees each retired set no invocation can still be reading.
  void ReclaimLocked();

  // A displaced advice set and the counter slots of its tracepoint not yet
  // seen idle since it was displaced (bit i: slot i).
  struct RetiredSet {
    const Tracepoint* tp;
    std::unique_ptr<const AdviceSet> set;
    uint32_t busy_slots;
  };
  static_assert(kThreadSlots < 32, "RetiredSet::busy_slots holds one bit per slot");

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Tracepoint>, std::less<>> tracepoints_;
  // query id -> its woven advice, each plan compiled or shared once its
  // tracepoint is defined.
  std::map<uint64_t, std::vector<WovenAdvice>> woven_;
  // Displaced sets some invocation may still be reading (see class comment).
  // Declared after tracepoints_, so it is destroyed first.
  std::vector<RetiredSet> retired_;
};

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_TRACEPOINT_H_
