// AdvicePlan: the one advice executor. TracepointRegistry::WeaveQuery lowers
// each (tracepoint, advice) pair once, at weave time, off the fire path:
// observe (export, output) pairs, pack/emit projections, Let output columns
// and every Expr field reference are bound to dense SymbolIds, so a fire
// compares integers, never strings. Execution reads the fire's exports in
// place (ExportView) and keeps per-thread working tuples, with their
// capacity, across fires, so a steady-state fire allocates nothing of its
// own: only a bag's storage on Pack and whatever the sink keeps.

#ifndef PIVOT_SRC_CORE_PLAN_H_
#define PIVOT_SRC_CORE_PLAN_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_ordinal.h"
#include "src/core/advice.h"
#include "src/core/baggage.h"
#include "src/core/context.h"
#include "src/core/exports.h"
#include "src/core/expr.h"
#include "src/core/symbol.h"
#include "src/core/tuple.h"

namespace pivot {

class AdvicePlan {
 public:
  using Ptr = std::shared_ptr<const AdvicePlan>;
  // Bag key -> the schema a query's Pack op gives that bag.
  using BagSchemas = std::map<BagKey, BagSchemaPtr>;

  // Adds the schema of each bag `advice` packs, from its first Pack op of
  // the key, to `*schemas`; keys already present keep theirs. Interns the
  // packed columns.
  static void AddBagSchemas(const Advice& advice, BagSchemas* schemas);

  // Lowers `advice` into an executable plan. Interns all column names and
  // binds expression trees; counted by the `plan.bind_count` telemetry
  // counter. Each Pack and Unpack step binds its bag's schema from
  // `schemas` (WeaveQuery passes the query's own Pack ops), else from this
  // advice's Pack of the key; an Unpack of a key neither names reads only
  // bags decoded in this process. Returns nullptr only for null input.
  static Ptr Compile(const Advice::Ptr& advice, const BagSchemas& schemas = {});

  // Runs the program against one tracepoint invocation. `exports` reads the
  // raw exported variables (unqualified names, defaults included); a Tuple
  // converts to it. Uses the context's baggage for Unpack/Pack and the
  // context's process sink for Emit; a null context runs nothing.
  // Reentrancy-safe: meta-tracepoints fired during Pack/Emit may re-enter
  // Execute on the same thread (each depth gets its own scratch tuples).
  //
  // Safety: besides being loop-free, execution bounds the working set at
  // kMaxWorkingSet tuples — pathological multi-unpack cartesian joins
  // truncate (counted by the advice.truncations counter) instead of
  // exhausting memory, keeping advice overhead bounded even for adversarial
  // queries.
  void Execute(ExecutionContext* ctx, const ExportView& exports) const;

  // Upper bound on tuples materialized by one advice execution.
  static constexpr size_t kMaxWorkingSet = 65536;

 private:
  struct Step {
    Advice::OpKind kind;

    // kObserve: (exported variable, output column) ids.
    std::vector<std::pair<SymbolId, SymbolId>> observe;

    // kUnpack / kPack: which bag, and its schema (null for an Unpack of a
    // bag no Pack names).
    BagKey bag = 0;
    BagSchemaPtr bag_schema;

    // kPack / kEmit: projection columns; `project` precomputes whether the
    // projection applies (a retention Pack, or an Emit that names columns).
    std::vector<SymbolId> fields;
    bool project = false;

    // kLet: output column; kLet/kFilter: bound expression.
    SymbolId let_id = kInvalidSymbol;
    Expr::Ptr expr;

    // kEmit: destination query.
    uint64_t query_id = 0;

    // kSample: accept probability.
    double sample_rate = 1.0;
  };

  AdvicePlan() = default;

  std::vector<Step> steps_;
  // Fires that reached a kSample step with a rate below 1. One sequence per
  // plan, shared by threads, so how many fires a plan samples does not
  // depend on how its fires spread over threads (counts stay reproducible).
  // It sits on a cache line of its own, off the steps every fire reads.
  alignas(kCacheLine) mutable std::atomic<uint64_t> sample_sequence_{0};
};

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_PLAN_H_
