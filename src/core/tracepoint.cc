#include "src/core/tracepoint.h"

#include <algorithm>
#include <optional>

#include "src/common/clock.h"
#include "src/core/advice_io.h"
#include "src/telemetry/metrics.h"

namespace pivot {

namespace {

// The key of the first bag `advice` packs, if it packs any.
std::optional<BagKey> FirstPackedBag(const Advice& advice) {
  for (const Advice::Op& op : advice.ops()) {
    if (op.kind == Advice::OpKind::kPack) {
      return op.bag;
    }
  }
  return std::nullopt;
}

telemetry::Counter& SetsRetiredCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("core.advice_sets_retired");
  return c;
}

telemetry::Counter& SetsFreedCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("core.advice_sets_freed");
  return c;
}

bool SameProgram(const Advice& a, const Advice& b) {
  std::vector<uint8_t> a_bytes;
  std::vector<uint8_t> b_bytes;
  EncodeAdvice(&a_bytes, a);
  EncodeAdvice(&b_bytes, b);
  return a_bytes == b_bytes;
}

}  // namespace

void Tracepoint::InvokeSlow(ExecutionContext* ctx,
                            const std::vector<Tuple::Field>& exports) const {
  // The fast path's load only chose this path; the set read here is loaded
  // again once the slot is in flight, so the registry cannot free it early.
  CounterSlot& slot = Slot();
  InFlight reading(slot);
  const AdviceSet* set = advice_.load(std::memory_order_seq_cst);
  ExportView view(exports, def_.name, ctx != nullptr ? ctx->runtime() : nullptr);
  if (ctx != nullptr && ctx->recorder() != nullptr) {
    EventId ev = ctx->AdvanceEvent();
    ctx->recorder()->Record(ObservedEvent{ctx->trace_id(), ev, def_.name, view.Materialize()});
  }

  if (set != nullptr) {
    reading.fired = true;
    // Advice execution time is real wall clock even under simulated time:
    // it is the probe effect on the host, the quantity Table 5 bounds.
    int64_t start = MonotonicNanos();
    for (const AdvicePlan::Ptr& plan : *set) {
      plan->Execute(ctx, view);
    }
    slot.advice_nanos.fetch_add(static_cast<uint64_t>(MonotonicNanos() - start),
                                std::memory_order_relaxed);
  }
}

TracepointRegistry::TracepointRegistry() {
  // Registered up front, so StatusReport lists both before any churn.
  SetsRetiredCounter();
  SetsFreedCounter();
}

TracepointRegistry::~TracepointRegistry() = default;

Result<Tracepoint*> TracepointRegistry::Define(TracepointDef def) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tracepoints_.find(def.name);
  if (it != tracepoints_.end()) {
    return AlreadyExistsError("tracepoint already defined: " + def.name);
  }
  auto tp = std::make_unique<Tracepoint>(std::move(def));
  Tracepoint* raw = tp.get();
  tracepoints_.emplace(raw->name(), std::move(tp));
  // Deferred weaving: advice targeting this name may already be registered
  // (a standing query installed before this subsystem initialized). Its
  // plans are bound now.
  for (auto& [query_id, entries] : woven_) {
    BindLocked(&entries);
  }
  RebuildLocked(raw);
  return raw;
}

Tracepoint* TracepointRegistry::Find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tracepoints_.find(name);
  return it == tracepoints_.end() ? nullptr : it->second.get();
}

std::vector<std::string> TracepointRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tracepoints_.size());
  for (const auto& [name, tp] : tracepoints_) {
    names.push_back(name);
  }
  return names;
}

Status TracepointRegistry::WeaveQuery(
    uint64_t query_id, const std::vector<std::pair<std::string, Advice::Ptr>>& advice) {
  std::lock_guard<std::mutex> lock(mu_);
  if (woven_.count(query_id) != 0) {
    return AlreadyExistsError("query already woven: " + std::to_string(query_id));
  }
  // Validate everything before changing anything.
  for (const auto& [tp_name, adv] : advice) {
    if (adv == nullptr) {
      return InvalidArgumentError("null advice for tracepoint: " + tp_name);
    }
  }
  // Advice naming tracepoints this registry does not (yet) define is kept and
  // weaves when/if the tracepoint is defined later (deferred weaving): in a
  // distributed system every process receives the full weave command but
  // hosts only a subset of its tracepoints, and subsystems may initialize
  // after standing queries were installed. Compile-time validation against
  // the schema registry catches genuinely unknown names.
  //
  // Plan compilation: all name resolution happens when a plan is bound,
  // once per (tracepoint, advice) pair, off the fire path: here, or in
  // Define for a deferred tracepoint. Rebuilds only share plans.
  auto& entries = woven_[query_id];
  entries.reserve(advice.size());
  for (const auto& [tp_name, adv] : advice) {
    entries.push_back({tp_name, adv, nullptr});
  }
  BindLocked(&entries);
  for (const auto& [tp_name, adv] : advice) {
    auto it = tracepoints_.find(tp_name);
    if (it != tracepoints_.end()) {
      RebuildLocked(it->second.get());
    }
  }
  ReclaimLocked();
  return Status::Ok();
}

void TracepointRegistry::BindLocked(std::vector<WovenAdvice>* entries) {
  // Every Pack and Unpack step of the query binds the schema its own Pack op
  // gives the bag, so a bag off the wire decodes without names or spec.
  std::optional<AdvicePlan::BagSchemas> schemas;
  for (WovenAdvice& entry : *entries) {
    if (entry.plan != nullptr || tracepoints_.count(entry.tracepoint) == 0) {
      continue;
    }
    if (!schemas) {
      schemas.emplace();
      for (const WovenAdvice& other : *entries) {
        AdvicePlan::AddBagSchemas(*other.advice, &*schemas);
      }
    }
    entry.plan = ShareOrCompileLocked(entry.tracepoint, entry.advice, *schemas);
  }
}

void TracepointRegistry::UnweaveQuery(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = woven_.find(query_id);
  if (it == woven_.end()) {
    return;
  }
  std::vector<std::string> affected;
  for (const WovenAdvice& entry : it->second) {
    affected.push_back(entry.tracepoint);
  }
  woven_.erase(it);
  for (const auto& tp_name : affected) {
    auto tp_it = tracepoints_.find(tp_name);
    if (tp_it != tracepoints_.end()) {
      RebuildLocked(tp_it->second.get());
    }
  }
  ReclaimLocked();
}

std::vector<TracepointStatsRow> TracepointRegistry::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TracepointStatsRow> rows;
  rows.reserve(tracepoints_.size());
  for (const auto& [name, tp] : tracepoints_) {
    rows.push_back({name, tp->woven_fires(), tp->advice_nanos()});
  }
  return rows;
}

std::vector<uint64_t> TracepointRegistry::WovenQueries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> ids;
  ids.reserve(woven_.size());
  for (const auto& [id, plans] : woven_) {
    ids.push_back(id);
  }
  return ids;
}

AdvicePlan::Ptr TracepointRegistry::ShareOrCompileLocked(const std::string& tp_name,
                                                         const Advice::Ptr& advice,
                                                         const AdvicePlan::BagSchemas& schemas) {
  std::optional<BagKey> bag = FirstPackedBag(*advice);
  if (bag) {
    for (const auto& [query_id, entries] : woven_) {
      for (const WovenAdvice& entry : entries) {
        if (entry.plan != nullptr && entry.tracepoint == tp_name &&
            FirstPackedBag(*entry.advice) == bag && SameProgram(*entry.advice, *advice)) {
          return entry.plan;
        }
      }
    }
  }
  return AdvicePlan::Compile(advice, schemas);
}

void TracepointRegistry::RebuildLocked(Tracepoint* tp) {
  auto set = std::make_unique<AdviceSet>();
  for (const auto& [query_id, entries] : woven_) {
    for (const WovenAdvice& entry : entries) {
      if (entry.tracepoint == tp->name() && entry.plan != nullptr &&
          std::find(set->begin(), set->end(), entry.plan) == set->end()) {
        set->push_back(entry.plan);
      }
    }
  }
  if (set->empty()) {
    set.reset();
  }
  // seq_cst: the store half of the Dekker pair with InvokeSlow (see
  // Tracepoint::InFlight); ReclaimLocked's reads of the slots come after it.
  tp->advice_.store(set.get(), std::memory_order_seq_cst);
  std::unique_ptr<const AdviceSet> displaced = std::exchange(tp->current_, std::move(set));
  if (displaced != nullptr) {  // Invocations may still be reading it.
    retired_.push_back({tp, std::move(displaced), (uint32_t{1} << kThreadSlots) - 1});
    SetsRetiredCounter().Increment();
  }
}

void TracepointRegistry::ReclaimLocked() {
  std::erase_if(retired_, [](RetiredSet& retired) {
    for (size_t i = 0; i < kThreadSlots; ++i) {
      // An idle slot has finished every invocation that started before the
      // set was displaced, so it need not be read again for this set.
      if ((retired.busy_slots >> i & 1) != 0 &&
          (retired.tp->slots_[i].fires_in_flight.load(std::memory_order_seq_cst) &
           Tracepoint::kInFlightMask) == 0) {
        retired.busy_slots &= ~(uint32_t{1} << i);
      }
    }
    if (retired.busy_slots != 0) {
      return false;
    }
    SetsFreedCounter().Increment();
    return true;  // Erasing frees the set, and any plan only it still held.
  });
}

}  // namespace pivot
