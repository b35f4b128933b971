#include "src/core/advice.h"

#include <algorithm>
#include <atomic>

#include "src/telemetry/metrics.h"

namespace pivot {

namespace {

telemetry::Counter& TruncationsCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("advice.truncations");
  return c;
}

}  // namespace

namespace advice_internal {

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

void CountTruncation() { TruncationsCounter().Increment(); }

}  // namespace advice_internal

namespace {
using advice_internal::CountTruncation;
using advice_internal::SampleAccept;
}  // namespace

uint64_t Advice::truncation_count() { return TruncationsCounter().value(); }

void Advice::Execute(ExecutionContext* ctx, const Tuple& exports) const {
  if (ctx == nullptr) {
    return;
  }
  // The working set: starts as one empty tuple so that a leading Observe
  // replaces it and degenerate programs still behave sensibly.
  std::vector<Tuple> working;
  working.emplace_back();

  for (const Op& op : ops_) {
    switch (op.kind) {
      case OpKind::kSample: {
        if (!SampleAccept(op.sample_rate)) {
          return;
        }
        break;
      }
      case OpKind::kObserve: {
        Tuple observed;
        for (const auto& [from, to] : op.observe) {
          observed.Append(to, exports.Get(from));
        }
        // Observe concatenates onto the working set (normally the initial
        // empty tuple, yielding exactly the observed tuple).
        for (auto& w : working) {
          w = w.Concat(observed);
        }
        break;
      }
      case OpKind::kUnpack: {
        std::vector<Tuple> unpacked = ctx->baggage().Unpack(op.bag);
        // Inner-join semantics: "if t_o is observed and t_u1 and t_u2 are
        // unpacked, then the resulting tuples are t_o·t_u1 and t_o·t_u2".
        // No unpacked tuples -> the working set empties and nothing is
        // packed or emitted downstream.
        std::vector<Tuple> joined;
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
        working = std::move(joined);
        break;
      }
      case OpKind::kLet: {
        for (auto& w : working) {
          w.Append(op.let_name, op.expr->Eval(w));
        }
        break;
      }
      case OpKind::kFilter: {
        std::vector<Tuple> kept;
        kept.reserve(working.size());
        for (auto& w : working) {
          if (op.expr->Eval(w).AsBool()) {
            kept.push_back(std::move(w));
          }
        }
        working = std::move(kept);
        break;
      }
      case OpKind::kPack: {
        for (const auto& w : working) {
          if (op.fields.empty() || op.bag_spec.semantics == PackSemantics::kAggregate) {
            ctx->baggage().Pack(op.bag, op.bag_spec, w);
          } else {
            ctx->baggage().Pack(op.bag, op.bag_spec, w.Project(op.fields));
          }
        }
        break;
      }
      case OpKind::kEmit: {
        EmitSink* sink =
            ctx->runtime() != nullptr ? ctx->runtime()->sink : nullptr;
        if (sink == nullptr) {
          break;
        }
        for (const auto& w : working) {
          if (op.fields.empty()) {
            sink->EmitTuple(op.query_id, w);
          } else {
            sink->EmitTuple(op.query_id, w.Project(op.fields));
          }
        }
        break;
      }
    }
    if (working.empty()) {
      return;  // Nothing left for downstream ops to act on.
    }
  }
}

namespace {

std::string FieldList(const std::vector<std::string>& fields) {
  std::string out = "[";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += fields[i];
  }
  out += "]";
  return out;
}

std::string SpecString(const BagSpec& spec) {
  switch (spec.semantics) {
    case PackSemantics::kAll:
      return "";
    case PackSemantics::kFirstN:
      return spec.limit == 1 ? "-FIRST" : "-FIRST(" + std::to_string(spec.limit) + ")";
    case PackSemantics::kRecentN:
      return spec.limit == 1 ? "-RECENT" : "-RECENT(" + std::to_string(spec.limit) + ")";
    case PackSemantics::kAggregate: {
      std::string s = "-AGG(";
      for (size_t i = 0; i < spec.plan.aggs.size(); ++i) {
        if (i != 0) {
          s += ", ";
        }
        s += AggFnName(spec.plan.aggs[i].fn);
        s += "(" + spec.plan.aggs[i].input + ")";
      }
      if (!spec.plan.group_fields.empty()) {
        s += " BY " + FieldList(spec.plan.group_fields);
      }
      s += ")";
      return s;
    }
  }
  return "";
}

}  // namespace

std::string Advice::ToString() const {
  std::string out;
  for (const Op& op : ops_) {
    if (!out.empty()) {
      out += "\n";
    }
    switch (op.kind) {
      case OpKind::kObserve: {
        out += "OBSERVE ";
        for (size_t i = 0; i < op.observe.size(); ++i) {
          if (i != 0) {
            out += ", ";
          }
          out += op.observe[i].first;
          if (op.observe[i].second != op.observe[i].first) {
            out += " AS " + op.observe[i].second;
          }
        }
        break;
      }
      case OpKind::kUnpack:
        out += "UNPACK bag" + std::to_string(op.bag);
        break;
      case OpKind::kLet:
        out += "LET " + op.let_name + " = " + op.expr->ToString();
        break;
      case OpKind::kFilter:
        out += "FILTER " + op.expr->ToString();
        break;
      case OpKind::kPack:
        out += "PACK" + SpecString(op.bag_spec) + " bag" + std::to_string(op.bag) + " " +
               FieldList(op.fields);
        break;
      case OpKind::kEmit:
        out += "EMIT q" + std::to_string(op.query_id) + " " + FieldList(op.fields);
        break;
      case OpKind::kSample:
        out += "SAMPLE " + std::to_string(op.sample_rate);
        break;
    }
  }
  return out;
}

AdviceBuilder& AdviceBuilder::Sample(double rate) {
  Advice::Op op;
  op.kind = Advice::OpKind::kSample;
  op.sample_rate = rate;
  ops_.push_back(std::move(op));
  return *this;
}

AdviceBuilder& AdviceBuilder::Observe(std::vector<std::pair<std::string, std::string>> vars) {
  Advice::Op op;
  op.kind = Advice::OpKind::kObserve;
  op.observe = std::move(vars);
  ops_.push_back(std::move(op));
  return *this;
}

AdviceBuilder& AdviceBuilder::Unpack(BagKey bag) {
  Advice::Op op;
  op.kind = Advice::OpKind::kUnpack;
  op.bag = bag;
  ops_.push_back(std::move(op));
  return *this;
}

AdviceBuilder& AdviceBuilder::Let(std::string name, Expr::Ptr expr) {
  Advice::Op op;
  op.kind = Advice::OpKind::kLet;
  op.let_name = std::move(name);
  op.expr = std::move(expr);
  ops_.push_back(std::move(op));
  return *this;
}

AdviceBuilder& AdviceBuilder::Filter(Expr::Ptr predicate) {
  Advice::Op op;
  op.kind = Advice::OpKind::kFilter;
  op.expr = std::move(predicate);
  ops_.push_back(std::move(op));
  return *this;
}

AdviceBuilder& AdviceBuilder::Pack(BagKey bag, BagSpec spec, std::vector<std::string> fields) {
  Advice::Op op;
  op.kind = Advice::OpKind::kPack;
  op.bag = bag;
  op.bag_spec = std::move(spec);
  op.fields = std::move(fields);
  ops_.push_back(std::move(op));
  return *this;
}

AdviceBuilder& AdviceBuilder::Emit(uint64_t query_id, std::vector<std::string> fields) {
  Advice::Op op;
  op.kind = Advice::OpKind::kEmit;
  op.query_id = query_id;
  op.fields = std::move(fields);
  ops_.push_back(std::move(op));
  return *this;
}

Advice::Ptr AdviceBuilder::Build() { return std::make_shared<const Advice>(std::move(ops_)); }

}  // namespace pivot
