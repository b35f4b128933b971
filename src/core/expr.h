// Side-effect-free expression trees evaluated over tuples.
//
// Where-clauses and Select arithmetic (e.g. Q8's `response.time - request.time`)
// compile to these trees. Evaluation is total (errors yield null) and the tree
// has no loops or calls, preserving the advice safety guarantee of §3: advice
// "has no jumps or recursion, and is guaranteed to terminate".

#ifndef PIVOT_SRC_CORE_EXPR_H_
#define PIVOT_SRC_CORE_EXPR_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/core/symbol.h"
#include "src/core/tuple.h"
#include "src/core/value.h"

namespace pivot {

enum class ExprOp {
  kLiteral,   // A constant value.
  kField,     // A (qualified) field reference, e.g. "st.host".
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kNot,
  kNeg,
};

// The deepest expression tree the system accepts, in edges from the root to
// the deepest leaf. The parser rejects deeper queries and DecodeExpr deeper
// weave commands, so every expression the parser accepts can be woven.
inline constexpr int kMaxExprDepth = 128;

// Immutable expression node. Built once at query-compile time, shared freely
// across advice instances (all members are const after construction).
class Expr {
 public:
  using Ptr = std::shared_ptr<const Expr>;

  static Ptr Literal(Value v);
  static Ptr Field(std::string name);
  static Ptr Binary(ExprOp op, Ptr lhs, Ptr rhs);
  static Ptr Unary(ExprOp op, Ptr operand);

  ExprOp op() const { return op_; }
  const Value& literal() const { return literal_; }
  const std::string& field_name() const { return field_; }
  const Ptr& lhs() const { return lhs_; }
  const Ptr& rhs() const { return rhs_; }
  // Edges from this node to its deepest leaf (a leaf's depth is 0).
  int depth() const { return depth_; }

  // Evaluates against `t`; missing fields read as null, comparisons yield
  // int64 0/1, arithmetic type errors yield null.
  Value Eval(const Tuple& t) const;

  // Resolves every kField reference in the tree to a SymbolId through the
  // global interner, so Eval compares integers instead of strings. Plan
  // compilation calls this once at weave time; Eval also binds lazily on
  // first use, so an unbound tree is merely slower, never wrong.
  void Bind() const;

  // All field names referenced anywhere in the tree (for the optimizer's
  // projection pushdown).
  void CollectFields(std::vector<std::string>* out) const;

  // True if every field the tree references appears in `available`.
  bool FieldsSubsetOf(const std::vector<std::string>& available) const;

  // Parseable rendering, e.g. "(st.host != DNop.host)".
  std::string ToString() const;

 private:
  Expr() = default;

  // Cached interned id for kField nodes; kInvalidSymbol until bound. Atomic
  // because shared trees may be evaluated from several threads; the value is
  // write-once (interning is idempotent) so relaxed ordering suffices.
  SymbolId BoundFieldId() const {
    SymbolId id = field_id_.load(std::memory_order_relaxed);
    if (id == kInvalidSymbol) {
      id = InternSymbol(field_);
      field_id_.store(id, std::memory_order_relaxed);
    }
    return id;
  }

  ExprOp op_ = ExprOp::kLiteral;
  Value literal_;
  std::string field_;
  mutable std::atomic<SymbolId> field_id_{kInvalidSymbol};
  Ptr lhs_;
  Ptr rhs_;
  int depth_ = 0;
};

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_EXPR_H_
