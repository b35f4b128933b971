#include "src/core/plan.h"

#include <atomic>
#include <utility>

#include "src/telemetry/metrics.h"

namespace pivot {

namespace {

// Sampling decision: the plan's fire sequence hashed through splitmix64
// gives a well-distributed accept/reject sequence whose accepted count over
// N fires is the same however the fires spread over threads.
bool SampleAccept(double rate, std::atomic<uint64_t>* sequence) {
  if (rate >= 1.0) {
    return true;
  }
  if (rate <= 0.0) {
    return false;
  }
  uint64_t z = sequence->fetch_add(1, std::memory_order_relaxed) + 0x9E3779B97F4A7C15ULL;
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

// Per-thread working tuples, reused with their capacity across invocations
// so a steady-state fire allocates nothing. Indexed by re-entrancy depth:
// meta-tracepoints (e.g. Baggage.Serialize fired from an agent flush) can
// re-enter Execute on the same thread, and each nesting level needs its own.
struct Scratch {
  std::vector<Tuple> rows;    // rows[0, live) is the working set.
  std::vector<Tuple> joined;  // Unpack's join output, swapped with rows.
  std::vector<Tuple> bag;     // Unpack's buffer when a bag is not read in place.
  Tuple out;                  // Pack/Emit projection.
};

Scratch& AcquireScratch(size_t depth) {
  thread_local std::vector<std::unique_ptr<Scratch>> pool;
  while (pool.size() <= depth) {
    pool.push_back(std::make_unique<Scratch>());
  }
  return *pool[depth];
}

// Row `i` of `rows`, appended when `rows` is that short. Its old contents stay
// for the caller to overwrite or clear.
Tuple& RowAt(std::vector<Tuple>* rows, size_t i) {
  if (i == rows->size()) {
    rows->emplace_back();
  }
  return (*rows)[i];
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

// The tuple a Pack or Emit step hands on: `row` itself, or its projection
// built in `*out`.
const Tuple& Projected(bool project, const std::vector<SymbolId>& fields, const Tuple& row,
                       Tuple* out) {
  if (!project) {
    return row;
  }
  row.ProjectInto(fields, out);
  return *out;
}

// The schema a Pack op gives its bag: its spec and projection.
BagSchemaPtr SchemaOf(const Advice::Op& op) {
  return std::make_shared<const BagSchema>(op.bag_spec, InternSymbols(op.fields));
}

}  // namespace

void AdvicePlan::AddBagSchemas(const Advice& advice, BagSchemas* schemas) {
  for (const Advice::Op& op : advice.ops()) {
    if (op.kind == Advice::OpKind::kPack && schemas->count(op.bag) == 0) {
      schemas->emplace(op.bag, SchemaOf(op));
    }
  }
}

AdvicePlan::Ptr AdvicePlan::Compile(const Advice::Ptr& advice, const BagSchemas& schemas) {
  if (advice == nullptr) {
    return nullptr;
  }
  // Keys `schemas` lacks take this advice's own Pack of them.
  BagSchemas own;
  for (const Advice::Op& op : advice->ops()) {
    if (op.kind == Advice::OpKind::kPack && schemas.count(op.bag) == 0 &&
        own.count(op.bag) == 0) {
      own.emplace(op.bag, SchemaOf(op));
    }
  }
  auto plan = std::shared_ptr<AdvicePlan>(new AdvicePlan());
  plan->steps_.reserve(advice->ops().size());
  for (const Advice::Op& op : advice->ops()) {
    Step step;
    step.kind = op.kind;
    step.bag = op.bag;
    if (op.kind == Advice::OpKind::kPack || op.kind == Advice::OpKind::kUnpack) {
      if (auto it = schemas.find(op.bag); it != schemas.end()) {
        step.bag_schema = it->second;
      } else if (auto mine = own.find(op.bag); mine != own.end()) {
        step.bag_schema = mine->second;
      }
    }
    step.query_id = op.query_id;
    step.sample_rate = op.sample_rate;
    step.observe.reserve(op.observe.size());
    for (const auto& [from, to] : op.observe) {
      step.observe.emplace_back(InternSymbol(from), InternSymbol(to));
    }
    if (op.kind == Advice::OpKind::kPack) {
      step.fields = step.bag_schema->columns;  // A Pack projects onto its bag's schema.
    } else {
      step.fields = InternSymbols(op.fields);
    }
    switch (op.kind) {
      case Advice::OpKind::kPack:
        step.project = op.bag_spec.semantics != PackSemantics::kAggregate;
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

void AdvicePlan::Execute(ExecutionContext* ctx, const ExportView& exports) const {
  if (ctx == nullptr) {
    return;
  }
  DepthGuard guard;
  Scratch& scratch = AcquireScratch(guard.depth);
  std::vector<Tuple>& rows = scratch.rows;
  // Starts as one empty tuple so a leading Observe fills it and degenerate
  // programs still behave sensibly.
  RowAt(&rows, 0).Clear();
  size_t live = 1;

  for (const Step& step : steps_) {
    switch (step.kind) {
      case Advice::OpKind::kSample: {
        if (!SampleAccept(step.sample_rate, &sample_sequence_)) {
          return;
        }
        break;
      }
      case Advice::OpKind::kObserve: {
        // Appends the observed exports to every row (t_w · t_o). The first
        // row reads the exports; the others copy what it appended.
        Tuple& first = rows[0];
        const size_t from = first.size();
        for (const auto& [export_id, column] : step.observe) {
          first.Append(column, exports.Get(export_id));
        }
        for (size_t r = 1; r < live; ++r) {
          for (size_t f = from; f < first.size(); ++f) {
            rows[r].Append(first.field(f).id, first.field(f).value);
          }
        }
        break;
      }
      case Advice::OpKind::kUnpack: {
        // Inner join (§3): an observed t_o and unpacked t_u1, t_u2 give
        // t_o·t_u1 and t_o·t_u2; an empty bag empties the working set. The
        // bag's rows are read in place, or decoded into the scratch buffer.
        const std::vector<Tuple>& unpacked =
            ctx->baggage().Unpack(step.bag, step.bag_schema.get(), &scratch.bag);
        size_t joined = 0;
        bool truncated = false;
        for (size_t r = 0; r < live && !truncated; ++r) {
          for (const Tuple& u : unpacked) {
            if (joined >= kMaxWorkingSet) {
              truncated = true;
              break;
            }
            Tuple& row = RowAt(&scratch.joined, joined++);
            row = rows[r];
            row.AppendAll(u);
          }
        }
        if (truncated) {
          CountTruncation();
        }
        rows.swap(scratch.joined);
        live = joined;
        break;
      }
      case Advice::OpKind::kLet: {
        for (size_t r = 0; r < live; ++r) {
          rows[r].Append(step.let_id, step.expr->Eval(rows[r]));
        }
        break;
      }
      case Advice::OpKind::kFilter: {
        // Compacts in place; dropped rows keep their capacity past `live`.
        size_t kept = 0;
        for (size_t r = 0; r < live; ++r) {
          if (step.expr->Eval(rows[r]).AsBool()) {
            if (kept != r) {
              std::swap(rows[kept], rows[r]);
            }
            ++kept;
          }
        }
        live = kept;
        break;
      }
      case Advice::OpKind::kPack: {
        for (size_t r = 0; r < live; ++r) {
          ctx->baggage().Pack(step.bag, *step.bag_schema,
                              Projected(step.project, step.fields, rows[r], &scratch.out));
        }
        break;
      }
      case Advice::OpKind::kEmit: {
        EmitSink* sink = ctx->runtime() != nullptr ? ctx->runtime()->sink : nullptr;
        if (sink == nullptr) {
          break;
        }
        for (size_t r = 0; r < live; ++r) {
          sink->EmitTuple(step.query_id,
                          Projected(step.project, step.fields, rows[r], &scratch.out));
        }
        break;
      }
    }
    if (live == 0) {
      return;
    }
  }
}

}  // namespace pivot
