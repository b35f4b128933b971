// AdvicePlan: the weave-time compiled form of an advice program.
//
// Advice::Execute (src/core/advice.cc) resolves every column name by string
// on every tracepoint fire. An AdvicePlan lowers the same straight-line
// program once, when the advice is woven: observe (export, output) pairs,
// pack/emit projections, Let output columns, and every Expr field reference
// are bound to dense SymbolIds, and execution reuses a per-thread working-set
// buffer instead of constructing fresh vectors per invocation.
//
// Execute is semantically identical to Advice::Execute — same op order, same
// kMaxWorkingSet truncation, same deterministic sampling sequence (shared via
// advice_internal) — which the fuzz equivalence suite asserts byte-for-byte.

#ifndef PIVOT_SRC_CORE_PLAN_H_
#define PIVOT_SRC_CORE_PLAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/advice.h"
#include "src/core/baggage.h"
#include "src/core/context.h"
#include "src/core/expr.h"
#include "src/core/symbol.h"
#include "src/core/tuple.h"

namespace pivot {

class AdvicePlan {
 public:
  using Ptr = std::shared_ptr<const AdvicePlan>;

  // Lowers `advice` into an executable plan. Interns all column names and
  // binds expression trees; counted by the `plan.bind_count` telemetry
  // counter. Returns nullptr only for null input.
  static Ptr Compile(const Advice::Ptr& advice);

  // Runs the compiled program against one tracepoint invocation. Same
  // contract as Advice::Execute. Reentrancy-safe: meta-tracepoints fired
  // during Pack/Emit may re-enter Execute on the same thread (each depth gets
  // its own scratch buffer).
  void Execute(ExecutionContext* ctx, const Tuple& exports) const;

  size_t step_count() const { return steps_.size(); }

 private:
  struct Step {
    Advice::OpKind kind;

    // kObserve: (exported variable, output column) ids.
    std::vector<std::pair<SymbolId, SymbolId>> observe;

    // kUnpack / kPack: which bag; kPack: its semantics.
    BagKey bag = 0;
    BagSpec bag_spec;

    // kPack / kEmit: projection columns; `project` precomputes whether the
    // projection applies (non-empty and, for Pack, not an aggregate bag).
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
};

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_PLAN_H_
