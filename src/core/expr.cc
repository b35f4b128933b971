#include "src/core/expr.h"

#include <algorithm>

namespace pivot {

Expr::Ptr Expr::Literal(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

Expr::Ptr Expr::Field(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = ExprOp::kField;
  e->field_ = std::move(name);
  return e;
}

Expr::Ptr Expr::Binary(ExprOp op, Ptr lhs, Ptr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = op;
  e->depth_ = 1 + std::max(lhs->depth_, rhs->depth_);
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

Expr::Ptr Expr::Unary(ExprOp op, Ptr operand) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = op;
  e->depth_ = 1 + operand->depth_;
  e->lhs_ = std::move(operand);
  return e;
}

Value Expr::Eval(const Tuple& t) const {
  switch (op_) {
    case ExprOp::kLiteral:
      return literal_;
    case ExprOp::kField:
      return t.Get(BoundFieldId());
    case ExprOp::kAdd:
      return ValueAdd(lhs_->Eval(t), rhs_->Eval(t));
    case ExprOp::kSub:
      return ValueSub(lhs_->Eval(t), rhs_->Eval(t));
    case ExprOp::kMul:
      return ValueMul(lhs_->Eval(t), rhs_->Eval(t));
    case ExprOp::kDiv:
      return ValueDiv(lhs_->Eval(t), rhs_->Eval(t));
    case ExprOp::kMod:
      return ValueMod(lhs_->Eval(t), rhs_->Eval(t));
    case ExprOp::kEq:
      return Value(int64_t{lhs_->Eval(t) == rhs_->Eval(t)});
    case ExprOp::kNe:
      return Value(int64_t{lhs_->Eval(t) != rhs_->Eval(t)});
    case ExprOp::kLt:
      return Value(int64_t{lhs_->Eval(t).Compare(rhs_->Eval(t)) < 0});
    case ExprOp::kLe:
      return Value(int64_t{lhs_->Eval(t).Compare(rhs_->Eval(t)) <= 0});
    case ExprOp::kGt:
      return Value(int64_t{lhs_->Eval(t).Compare(rhs_->Eval(t)) > 0});
    case ExprOp::kGe:
      return Value(int64_t{lhs_->Eval(t).Compare(rhs_->Eval(t)) >= 0});
    case ExprOp::kAnd:
      // Short-circuit to keep evaluation cost bounded by tree size.
      if (!lhs_->Eval(t).AsBool()) {
        return Value(int64_t{0});
      }
      return Value(int64_t{rhs_->Eval(t).AsBool()});
    case ExprOp::kOr:
      if (lhs_->Eval(t).AsBool()) {
        return Value(int64_t{1});
      }
      return Value(int64_t{rhs_->Eval(t).AsBool()});
    case ExprOp::kNot:
      return Value(int64_t{!lhs_->Eval(t).AsBool()});
    case ExprOp::kNeg:
      return ValueSub(Value(int64_t{0}), lhs_->Eval(t));
  }
  return Value();
}

void Expr::Bind() const {
  if (op_ == ExprOp::kField) {
    (void)BoundFieldId();
    return;
  }
  if (lhs_ != nullptr) {
    lhs_->Bind();
  }
  if (rhs_ != nullptr) {
    rhs_->Bind();
  }
}

void Expr::CollectFields(std::vector<std::string>* out) const {
  if (op_ == ExprOp::kField) {
    if (std::find(out->begin(), out->end(), field_) == out->end()) {
      out->push_back(field_);
    }
    return;
  }
  if (lhs_ != nullptr) {
    lhs_->CollectFields(out);
  }
  if (rhs_ != nullptr) {
    rhs_->CollectFields(out);
  }
}

bool Expr::FieldsSubsetOf(const std::vector<std::string>& available) const {
  std::vector<std::string> used;
  CollectFields(&used);
  for (const auto& f : used) {
    if (std::find(available.begin(), available.end(), f) == available.end()) {
      return false;
    }
  }
  return true;
}

namespace {

const char* OpToken(ExprOp op) {
  switch (op) {
    case ExprOp::kAdd:
      return "+";
    case ExprOp::kSub:
      return "-";
    case ExprOp::kMul:
      return "*";
    case ExprOp::kDiv:
      return "/";
    case ExprOp::kMod:
      return "%";
    case ExprOp::kEq:
      return "==";
    case ExprOp::kNe:
      return "!=";
    case ExprOp::kLt:
      return "<";
    case ExprOp::kLe:
      return "<=";
    case ExprOp::kGt:
      return ">";
    case ExprOp::kGe:
      return ">=";
    case ExprOp::kAnd:
      return "&&";
    case ExprOp::kOr:
      return "||";
    default:
      return "?";
  }
}

}  // namespace

std::string Expr::ToString() const {
  switch (op_) {
    case ExprOp::kLiteral:
      if (literal_.is_string()) {
        return "\"" + literal_.string_value() + "\"";
      }
      return literal_.ToString();
    case ExprOp::kField:
      return field_;
    case ExprOp::kNot:
      return "!(" + lhs_->ToString() + ")";
    case ExprOp::kNeg:
      return "-(" + lhs_->ToString() + ")";
    default:
      return "(" + lhs_->ToString() + " " + OpToken(op_) + " " + rhs_->ToString() + ")";
  }
}

}  // namespace pivot
