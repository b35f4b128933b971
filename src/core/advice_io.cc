#include "src/core/advice_io.h"

#include <algorithm>

#include "src/common/varint.h"
#include "src/core/wire.h"

namespace pivot {

namespace {

bool DecodeExprImpl(const uint8_t* data, size_t size, size_t* pos, Expr::Ptr* out, int depth) {
  if (depth > kMaxExprDepth || *pos >= size) {
    return false;
  }
  uint8_t op_byte = data[(*pos)++];
  if (op_byte > static_cast<uint8_t>(ExprOp::kNeg)) {
    return false;
  }
  ExprOp op = static_cast<ExprOp>(op_byte);
  switch (op) {
    case ExprOp::kLiteral: {
      Value v;
      if (!GetValue(data, size, pos, &v)) {
        return false;
      }
      *out = Expr::Literal(std::move(v));
      return true;
    }
    case ExprOp::kField: {
      std::string name;
      if (!GetString(data, size, pos, &name)) {
        return false;
      }
      *out = Expr::Field(std::move(name));
      return true;
    }
    case ExprOp::kNot:
    case ExprOp::kNeg: {
      Expr::Ptr operand;
      if (!DecodeExprImpl(data, size, pos, &operand, depth + 1)) {
        return false;
      }
      *out = Expr::Unary(op, std::move(operand));
      return true;
    }
    default: {
      Expr::Ptr lhs;
      Expr::Ptr rhs;
      if (!DecodeExprImpl(data, size, pos, &lhs, depth + 1) ||
          !DecodeExprImpl(data, size, pos, &rhs, depth + 1)) {
        return false;
      }
      *out = Expr::Binary(op, std::move(lhs), std::move(rhs));
      return true;
    }
  }
}

}  // namespace

void PutBagSpec(std::vector<uint8_t>* out, const BagSpec& spec) {
  out->push_back(static_cast<uint8_t>(spec.semantics));
  PutVarint64(out, spec.limit);
  PutPlan(out, spec.plan);
}

bool GetBagSpec(const uint8_t* data, size_t size, size_t* pos, BagSpec* spec) {
  if (*pos >= size) {
    return false;
  }
  uint8_t sem = data[(*pos)++];
  if (sem > static_cast<uint8_t>(PackSemantics::kAggregate)) {
    return false;
  }
  spec->semantics = static_cast<PackSemantics>(sem);
  uint64_t limit = 0;
  const bool limited = spec->semantics == PackSemantics::kFirstN ||
                       spec->semantics == PackSemantics::kRecentN;
  if (!GetVarint64(data, size, pos, &limit) || limit > UINT32_MAX ||
      (limited && (limit == 0 || limit > kMaxBagTuples))) {
    return false;
  }
  spec->limit = static_cast<uint32_t>(limit);
  return GetPlan(data, size, pos, &spec->plan) &&
         spec->plan.aggregated() == (spec->semantics == PackSemantics::kAggregate);
}

void EncodeExpr(std::vector<uint8_t>* out, const Expr::Ptr& e) {
  out->push_back(static_cast<uint8_t>(e->op()));
  switch (e->op()) {
    case ExprOp::kLiteral:
      PutValue(out, e->literal());
      break;
    case ExprOp::kField:
      PutString(out, e->field_name());
      break;
    case ExprOp::kNot:
    case ExprOp::kNeg:
      EncodeExpr(out, e->lhs());
      break;
    default:
      EncodeExpr(out, e->lhs());
      EncodeExpr(out, e->rhs());
      break;
  }
}

bool DecodeExpr(const uint8_t* data, size_t size, size_t* pos, Expr::Ptr* out) {
  return DecodeExprImpl(data, size, pos, out, 0);
}

namespace {

// EncodeAdvice with every Pack and Unpack key written as `map(key)`.
template <typename KeyMap>
void EncodeAdviceMapped(std::vector<uint8_t>* out, const Advice& advice, const KeyMap& map) {
  PutVarint64(out, advice.ops().size());
  for (const Advice::Op& op : advice.ops()) {
    out->push_back(static_cast<uint8_t>(op.kind));
    switch (op.kind) {
      case Advice::OpKind::kObserve:
        PutVarint64(out, op.observe.size());
        for (const auto& [from, to] : op.observe) {
          PutString(out, from);
          PutString(out, to);
        }
        break;
      case Advice::OpKind::kUnpack:
        PutVarint64(out, map(op.bag));
        break;
      case Advice::OpKind::kLet:
        PutString(out, op.let_name);
        EncodeExpr(out, op.expr);
        break;
      case Advice::OpKind::kFilter:
        EncodeExpr(out, op.expr);
        break;
      case Advice::OpKind::kPack:
        PutVarint64(out, map(op.bag));
        PutBagSpec(out, op.bag_spec);
        PutStringList(out, op.fields);
        break;
      case Advice::OpKind::kEmit:
        PutVarint64(out, op.query_id);
        PutStringList(out, op.fields);
        break;
      case Advice::OpKind::kSample:
        PutValue(out, Value(op.sample_rate));
        break;
    }
  }
}

}  // namespace

void EncodeAdvice(std::vector<uint8_t>* out, const Advice& advice) {
  EncodeAdviceMapped(out, advice, [](BagKey key) { return key; });
}

std::vector<uint8_t> PackStageProgram(
    const std::vector<std::pair<std::string, Advice::Ptr>>& advice, BagKey bag,
    const std::map<BagKey, BagKey>& resolved) {
  auto packs_bag = [bag](const Advice::Op& op) {
    return op.kind == Advice::OpKind::kPack && op.bag == bag;
  };
  auto mask = [&](BagKey key) {
    if (key == bag) {
      return BagKey{0};
    }
    auto it = resolved.find(key);
    return it == resolved.end() ? key : it->second;
  };
  std::vector<uint8_t> content;
  for (const auto& [tp, adv] : advice) {
    if (std::none_of(adv->ops().begin(), adv->ops().end(), packs_bag)) {
      continue;
    }
    PutString(&content, tp);
    EncodeAdviceMapped(&content, *adv, mask);
  }
  return content;
}

bool DecodeAdvice(const uint8_t* data, size_t size, size_t* pos, Advice::Ptr* out) {
  uint64_t n = 0;
  if (!GetVarint64(data, size, pos, &n) || n > size) {
    return false;
  }
  std::vector<Advice::Op> ops;
  ops.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (*pos >= size) {
      return false;
    }
    uint8_t kind_byte = data[(*pos)++];
    if (kind_byte > static_cast<uint8_t>(Advice::OpKind::kSample)) {
      return false;
    }
    Advice::Op op;
    op.kind = static_cast<Advice::OpKind>(kind_byte);
    switch (op.kind) {
      case Advice::OpKind::kObserve: {
        uint64_t pairs = 0;
        if (!GetVarint64(data, size, pos, &pairs) || pairs > size) {
          return false;
        }
        for (uint64_t p = 0; p < pairs; ++p) {
          std::string from;
          std::string to;
          if (!GetString(data, size, pos, &from) || !GetString(data, size, pos, &to)) {
            return false;
          }
          op.observe.emplace_back(std::move(from), std::move(to));
        }
        break;
      }
      case Advice::OpKind::kUnpack:
        if (!GetVarint64(data, size, pos, &op.bag)) {
          return false;
        }
        break;
      case Advice::OpKind::kLet:
        if (!GetString(data, size, pos, &op.let_name) ||
            !DecodeExpr(data, size, pos, &op.expr)) {
          return false;
        }
        break;
      case Advice::OpKind::kFilter:
        if (!DecodeExpr(data, size, pos, &op.expr)) {
          return false;
        }
        break;
      case Advice::OpKind::kPack:
        if (!GetVarint64(data, size, pos, &op.bag) ||
            !GetBagSpec(data, size, pos, &op.bag_spec) ||
            !GetStringList(data, size, pos, &op.fields)) {
          return false;
        }
        break;
      case Advice::OpKind::kEmit:
        if (!GetVarint64(data, size, pos, &op.query_id) ||
            !GetStringList(data, size, pos, &op.fields)) {
          return false;
        }
        break;
      case Advice::OpKind::kSample: {
        Value rate;
        if (!GetValue(data, size, pos, &rate) || !rate.is_double()) {
          return false;
        }
        op.sample_rate = rate.double_value();
        break;
      }
    }
    ops.push_back(std::move(op));
  }
  *out = std::make_shared<const Advice>(std::move(ops));
  return true;
}

}  // namespace pivot
