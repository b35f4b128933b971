#include "src/core/plan.h"

#include <algorithm>
#include <atomic>

#include "src/telemetry/metrics.h"

namespace pivot {

namespace {

// Sampling decision: a global counter hashed through splitmix64 gives a
// reproducible (single-threaded) yet well-distributed accept/reject sequence
// without per-advice mutable state.
bool SampleAccept(double rate) {
  if (rate >= 1.0) {
    return true;
  }
  if (rate <= 0.0) {
    return false;
  }
  static std::atomic<uint64_t> counter{0};
  uint64_t z = counter.fetch_add(1, std::memory_order_relaxed) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53 < rate;
}

void CountTruncation() {
  static telemetry::Counter& truncations =
      telemetry::Metrics().GetCounter("advice.truncations");
  truncations.Increment();
}

// Per-thread working-set buffers, reused across invocations so plan execution
// does no vector allocation in steady state. Indexed by re-entrancy depth:
// meta-tracepoints (e.g. Baggage.Serialize fired from an agent flush) can
// re-enter Execute on the same thread, and each nesting level needs its own
// buffers.
struct Scratch {
  std::vector<Tuple> working;
  std::vector<Tuple> spare;
};

Scratch& AcquireScratch(size_t depth) {
  thread_local std::vector<std::unique_ptr<Scratch>> pool;
  while (pool.size() <= depth) {
    pool.push_back(std::make_unique<Scratch>());
  }
  return *pool[depth];
}

struct DepthGuard {
  static size_t& Depth() {
    thread_local size_t depth = 0;
    return depth;
  }
  DepthGuard() : depth(Depth()++) {}
  ~DepthGuard() { --Depth(); }
  size_t depth;
};

}  // namespace

AdvicePlan::Ptr AdvicePlan::Compile(const Advice::Ptr& advice) {
  if (advice == nullptr) {
    return nullptr;
  }
  auto plan = std::shared_ptr<AdvicePlan>(new AdvicePlan());
  plan->steps_.reserve(advice->ops().size());
  for (const Advice::Op& op : advice->ops()) {
    Step step;
    step.kind = op.kind;
    step.bag = op.bag;
    step.bag_spec = op.bag_spec;
    step.query_id = op.query_id;
    step.sample_rate = op.sample_rate;
    step.observe.reserve(op.observe.size());
    for (const auto& [from, to] : op.observe) {
      step.observe.emplace_back(InternSymbol(from), InternSymbol(to));
    }
    step.fields.reserve(op.fields.size());
    for (const auto& f : op.fields) {
      step.fields.push_back(InternSymbol(f));
    }
    switch (op.kind) {
      case Advice::OpKind::kPack:
        step.project = !op.fields.empty() &&
                       op.bag_spec.semantics != PackSemantics::kAggregate;
        break;
      case Advice::OpKind::kEmit:
        step.project = !op.fields.empty();
        break;
      default:
        break;
    }
    if (!op.let_name.empty()) {
      step.let_id = InternSymbol(op.let_name);
    }
    if (op.expr != nullptr) {
      op.expr->Bind();
      step.expr = op.expr;
    }
    plan->steps_.push_back(std::move(step));
  }
  static telemetry::Counter& binds = telemetry::Metrics().GetCounter("plan.bind_count");
  binds.Increment();
  return plan;
}

void AdvicePlan::Execute(ExecutionContext* ctx, const Tuple& exports) const {
  if (ctx == nullptr) {
    return;
  }
  DepthGuard guard;
  Scratch& scratch = AcquireScratch(guard.depth);
  std::vector<Tuple>& working = scratch.working;
  working.clear();
  // Starts as one empty tuple so a leading Observe replaces it and degenerate
  // programs still behave sensibly.
  working.emplace_back();

  for (const Step& step : steps_) {
    switch (step.kind) {
      case Advice::OpKind::kSample: {
        if (!SampleAccept(step.sample_rate)) {
          return;
        }
        break;
      }
      case Advice::OpKind::kObserve: {
        Tuple observed;
        for (const auto& [from, to] : step.observe) {
          observed.Append(to, exports.Get(from));
        }
        for (auto& w : working) {
          w = w.Concat(observed);
        }
        break;
      }
      case Advice::OpKind::kUnpack: {
        // Inner join (§3): an observed t_o and unpacked t_u1, t_u2 give
        // t_o·t_u1 and t_o·t_u2; an empty bag empties the working set.
        std::vector<Tuple> unpacked = ctx->baggage().Unpack(step.bag);
        std::vector<Tuple>& joined = scratch.spare;
        joined.clear();
        joined.reserve(std::min(working.size() * unpacked.size(), kMaxWorkingSet));
        bool truncated = false;
        for (const auto& w : working) {
          for (const auto& u : unpacked) {
            if (joined.size() >= kMaxWorkingSet) {
              truncated = true;
              break;
            }
            joined.push_back(w.Concat(u));
          }
          if (truncated) {
            break;
          }
        }
        if (truncated) {
          CountTruncation();
        }
        working.swap(joined);
        break;
      }
      case Advice::OpKind::kLet: {
        for (auto& w : working) {
          w.Append(step.let_id, step.expr->Eval(w));
        }
        break;
      }
      case Advice::OpKind::kFilter: {
        std::vector<Tuple>& kept = scratch.spare;
        kept.clear();
        kept.reserve(working.size());
        for (auto& w : working) {
          if (step.expr->Eval(w).AsBool()) {
            kept.push_back(std::move(w));
          }
        }
        working.swap(kept);
        break;
      }
      case Advice::OpKind::kPack: {
        for (const auto& w : working) {
          if (step.project) {
            ctx->baggage().Pack(step.bag, step.bag_spec, w.Project(step.fields));
          } else {
            ctx->baggage().Pack(step.bag, step.bag_spec, w);
          }
        }
        break;
      }
      case Advice::OpKind::kEmit: {
        EmitSink* sink = ctx->runtime() != nullptr ? ctx->runtime()->sink : nullptr;
        if (sink == nullptr) {
          break;
        }
        for (const auto& w : working) {
          if (step.project) {
            sink->EmitTuple(step.query_id, w.Project(step.fields));
          } else {
            sink->EmitTuple(step.query_id, w);
          }
        }
        break;
      }
    }
    if (working.empty()) {
      return;
    }
  }
}

}  // namespace pivot
