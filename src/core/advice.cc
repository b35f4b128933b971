#include "src/core/advice.h"

namespace pivot {

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
