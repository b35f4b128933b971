#include "src/analysis/advice_verifier.h"

#include <algorithm>
#include <cmath>

#include "src/core/exports.h"

namespace pivot {
namespace analysis {

namespace {

StaticType StaticTypeOf(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return StaticType::kNull;
    case ValueType::kInt:
      return StaticType::kInt;
    case ValueType::kDouble:
      return StaticType::kDouble;
    case ValueType::kString:
      return StaticType::kString;
  }
  return StaticType::kUnknown;
}

bool IsDefiniteNumeric(StaticType t) {
  return t == StaticType::kInt || t == StaticType::kDouble;
}

// Shared state for one expression-tree walk.
struct ExprCheck {
  const std::map<std::string, StaticType>* env;
  // When true, reads of columns absent from `env` are unverifiable (an
  // unpacked bag's provenance is unknown) and must not be blamed.
  bool open_env;
  Report* report;
  const std::string* tracepoint;
  int op_index;

  void Add(const char* code, Severity sev, std::string message) const {
    if (report != nullptr) {
      report->Add(code, sev, *tracepoint, op_index, std::move(message));
    }
  }
};

StaticType InferType(const Expr& e, const ExprCheck& c);

// Arithmetic/comparison operand check: definite strings feeding numeric
// operators are the silent string->0/null coercions PT103 exists for.
void CheckNumericOperand(const Expr& operand, StaticType t, const char* op_desc,
                         const ExprCheck& c) {
  if (t == StaticType::kString) {
    c.Add("PT103", Severity::kError,
          "string operand in " + std::string(op_desc) + ": " + operand.ToString() +
              " (strings never coerce to numbers; the evaluator yields null)");
  }
}

StaticType InferBinaryType(const Expr& e, const ExprCheck& c) {
  StaticType lt = InferType(*e.lhs(), c);
  StaticType rt = InferType(*e.rhs(), c);
  switch (e.op()) {
    case ExprOp::kAdd:
      if (lt == StaticType::kString && rt == StaticType::kString) {
        return StaticType::kString;  // Concatenation.
      }
      if ((lt == StaticType::kString && IsDefiniteNumeric(rt)) ||
          (rt == StaticType::kString && IsDefiniteNumeric(lt))) {
        c.Add("PT103", Severity::kError,
              "string/number addition is neither concatenation nor arithmetic: " + e.ToString());
        return StaticType::kNull;
      }
      if (lt == StaticType::kNull || rt == StaticType::kNull) {
        return StaticType::kNull;
      }
      if (lt == StaticType::kUnknown || rt == StaticType::kUnknown) {
        return StaticType::kUnknown;
      }
      return lt == StaticType::kInt && rt == StaticType::kInt ? StaticType::kInt
                                                              : StaticType::kDouble;
    case ExprOp::kSub:
    case ExprOp::kMul:
    case ExprOp::kDiv:
    case ExprOp::kMod: {
      CheckNumericOperand(*e.lhs(), lt, "numeric arithmetic", c);
      CheckNumericOperand(*e.rhs(), rt, "numeric arithmetic", c);
      if (e.op() == ExprOp::kDiv && e.rhs()->op() == ExprOp::kLiteral &&
          e.rhs()->literal().is_numeric() && e.rhs()->literal().AsDouble() == 0.0) {
        c.Add("PT110", Severity::kWarning,
              "division by literal zero always yields null: " + e.ToString());
        return StaticType::kNull;
      }
      if (lt == StaticType::kString || rt == StaticType::kString ||
          lt == StaticType::kNull || rt == StaticType::kNull) {
        return StaticType::kNull;
      }
      if (lt == StaticType::kUnknown || rt == StaticType::kUnknown) {
        return StaticType::kUnknown;
      }
      if (e.op() == ExprOp::kMod) {
        // Mod is integer-only; a definite double operand nulls out.
        return lt == StaticType::kInt && rt == StaticType::kInt ? StaticType::kInt
                                                                : StaticType::kNull;
      }
      return lt == StaticType::kInt && rt == StaticType::kInt ? StaticType::kInt
                                                              : StaticType::kDouble;
    }
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
      // Ordering a definite string against a definite number compares by type
      // rank, not value — almost always a typo'd column or literal.
      if ((lt == StaticType::kString && IsDefiniteNumeric(rt)) ||
          (IsDefiniteNumeric(lt) && rt == StaticType::kString)) {
        c.Add("PT103", Severity::kError,
              "ordering comparison between string and number: " + e.ToString());
      }
      return StaticType::kInt;
    case ExprOp::kEq:
    case ExprOp::kNe:
    case ExprOp::kAnd:
    case ExprOp::kOr:
      return StaticType::kInt;
    default:
      return StaticType::kUnknown;
  }
}

StaticType InferType(const Expr& e, const ExprCheck& c) {
  switch (e.op()) {
    case ExprOp::kLiteral:
      return StaticTypeOf(e.literal().type());
    case ExprOp::kField: {
      auto it = c.env->find(e.field_name());
      if (it != c.env->end()) {
        return it->second;
      }
      if (!c.open_env) {
        c.Add("PT102", Severity::kError,
              "reads column '" + e.field_name() + "' which no op produces");
      }
      return StaticType::kUnknown;
    }
    case ExprOp::kNot:
      InferType(*e.lhs(), c);
      return StaticType::kInt;
    case ExprOp::kNeg: {
      StaticType t = InferType(*e.lhs(), c);
      CheckNumericOperand(*e.lhs(), t, "numeric negation", c);
      if (t == StaticType::kString || t == StaticType::kNull) {
        return StaticType::kNull;
      }
      return t;
    }
    default:
      return InferBinaryType(e, c);
  }
}

}  // namespace

const char* StaticTypeName(StaticType t) {
  switch (t) {
    case StaticType::kNull:
      return "null";
    case StaticType::kInt:
      return "int";
    case StaticType::kDouble:
      return "double";
    case StaticType::kString:
      return "string";
    case StaticType::kUnknown:
      return "unknown";
  }
  return "?";
}

StaticType JoinStaticTypes(StaticType a, StaticType b) {
  if (a == b) {
    return a;
  }
  if (a == StaticType::kNull) {
    return b;
  }
  if (b == StaticType::kNull) {
    return a;
  }
  if (IsDefiniteNumeric(a) && IsDefiniteNumeric(b)) {
    return StaticType::kDouble;
  }
  return StaticType::kUnknown;
}

StaticType InferExprType(const Expr& e, const std::map<std::string, StaticType>& env,
                         Report* report, const std::string& tracepoint, int op_index) {
  ExprCheck c{&env, /*open_env=*/false, report, &tracepoint, op_index};
  return InferType(e, c);
}

VerifyResult AdviceVerifier::Verify(const Advice& advice) const {
  VerifyResult result;
  Report& report = result.report;
  const std::string tp_name = ctx_.tracepoint != nullptr ? ctx_.tracepoint->name : "";

  if (advice.ops().empty()) {
    report.Add("PT101", Severity::kError, tp_name, -1, "empty advice program");
    return result;
  }

  // The abstract working set: live columns with their static types. open_env
  // means an unpacked bag's column set is statically unknown, so reads of
  // unknown columns cannot be blamed.
  std::map<std::string, StaticType>& env = result.columns;
  bool env_open = false;
  bool has_effect = false;
  bool saw_sample = false;

  auto add = [&](const char* code, Severity sev, int op_index, std::string message) {
    report.Add(code, sev, tp_name, op_index, std::move(message));
  };

  const std::vector<Advice::Op>& ops = advice.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    const Advice::Op& op = ops[i];
    const int idx = static_cast<int>(i);
    ExprCheck check{&env, env_open, &report, &tp_name, idx};

    switch (op.kind) {
      case Advice::OpKind::kSample: {
        if (!(op.sample_rate > 0.0) || op.sample_rate > 1.0 || std::isnan(op.sample_rate)) {
          add("PT104", Severity::kError, idx,
              "sample rate " + std::to_string(op.sample_rate) + " outside (0, 1]");
        }
        if (i != 0) {
          add("PT112", Severity::kInfo, idx,
              saw_sample ? "repeated Sample op compounds the sampling rate"
                         : "Sample after other ops wastes the work they did on rejected "
                           "invocations");
        }
        saw_sample = true;
        break;
      }
      case Advice::OpKind::kObserve: {
        for (const auto& [from, to] : op.observe) {
          const DefaultExport* def = FindDefaultExport(from);
          StaticType t = def != nullptr ? StaticTypeOf(def->type) : StaticType::kUnknown;
          if (def == nullptr && ctx_.tracepoint != nullptr &&
              std::find(ctx_.tracepoint->exports.begin(), ctx_.tracepoint->exports.end(), from) ==
                  ctx_.tracepoint->exports.end()) {
            add("PT105", Severity::kError, idx,
                "tracepoint '" + tp_name + "' does not export '" + from +
                    "' (observed as " + to + "); it would always be null");
            t = StaticType::kNull;
          }
          if (env.count(to) != 0) {
            add("PT107", Severity::kWarning, idx,
                "duplicate column '" + to + "': the earlier binding shadows this one");
            continue;  // Reads keep the first binding.
          }
          env.emplace(to, t);
        }
        break;
      }
      case Advice::OpKind::kUnpack: {
        if (ctx_.bags == nullptr) {
          env_open = true;  // Unknown provenance: stop blaming unknown reads.
          break;
        }
        auto it = ctx_.bags->find(op.bag);
        if (it == ctx_.bags->end()) {
          add("PT106", Severity::kError, idx,
              "unpacks bag " + std::to_string(op.bag) +
                  ", which no causally-earlier advice of this query packs");
          env_open = true;
          break;
        }
        const BagColumns& bag = it->second;
        for (const auto& [name, type] : bag.columns) {
          auto [pos, inserted] = env.emplace(name, type);
          if (!inserted) {
            // Two upstream stages carried the same column; reads see the
            // earlier one, so join the types conservatively.
            pos->second = JoinStaticTypes(pos->second, type);
          }
        }
        break;
      }
      case Advice::OpKind::kLet: {
        if (op.expr == nullptr) {
          add("PT102", Severity::kError, idx, "Let '" + op.let_name + "' has no expression");
          break;
        }
        StaticType t = InferType(*op.expr, check);
        auto [pos, inserted] = env.emplace(op.let_name, t);
        if (!inserted) {
          add("PT111", Severity::kWarning, idx,
              "Let rebinds live column '" + op.let_name +
                  "'; reads keep the earlier value, so this binding is dead");
          (void)pos;
        }
        break;
      }
      case Advice::OpKind::kFilter: {
        if (op.expr == nullptr) {
          add("PT102", Severity::kError, idx, "Filter has no predicate");
          break;
        }
        InferType(*op.expr, check);
        std::vector<std::string> fields;
        op.expr->CollectFields(&fields);
        if (fields.empty()) {
          // Field-free predicates are compile-time constants; evaluate one.
          bool value = op.expr->Eval(Tuple()).AsBool();
          add("PT109", Severity::kWarning, idx,
              std::string("constant Filter predicate is always ") +
                  (value ? "true (it filters nothing)" : "false (it drops every tuple)") + ": " +
                  op.expr->ToString());
        }
        break;
      }
      case Advice::OpKind::kPack: {
        has_effect = true;
        BagColumns packed;
        packed.spec = op.bag_spec;
        if (op.bag_spec.semantics == PackSemantics::kAggregate) {
          // Aggregate bags retain group fields + aggregate state columns.
          for (const auto& g : op.bag_spec.plan.group_fields) {
            auto it = env.find(g);
            if (it == env.end() && !env_open) {
              add("PT102", Severity::kError, idx,
                  "packs aggregate group field '" + g + "' which no op produces");
            }
            packed.columns[g] = it != env.end() ? it->second : StaticType::kUnknown;
          }
          for (const AggSpec& spec : op.bag_spec.plan.aggs) {
            StaticType input_type = StaticType::kUnknown;
            if (!spec.input.empty()) {
              auto it = env.find(spec.input);
              if (it == env.end() && !env_open) {
                add("PT102", Severity::kError, idx,
                    "packs aggregate of column '" + spec.input + "' which no op produces");
              } else if (it != env.end()) {
                input_type = it->second;
              }
              if (input_type == StaticType::kString &&
                  (spec.fn == AggFn::kSum || spec.fn == AggFn::kAverage)) {
                add("PT103", Severity::kError, idx,
                    std::string(AggFnName(spec.fn)) + "(" + spec.input +
                        ") aggregates a string column");
              }
            }
            std::vector<std::string> state = spec.StateColumns();
            // First state column carries the running value; Average's second
            // ("#n") is the companion count.
            if (!state.empty()) {
              packed.columns[state[0]] =
                  spec.fn == AggFn::kCount ? StaticType::kInt : input_type;
            }
            for (size_t s = 1; s < state.size(); ++s) {
              packed.columns[state[s]] = StaticType::kInt;
            }
          }
        } else {
          // A retention bag keeps exactly its projection.
          for (const auto& f : op.fields) {
            auto it = env.find(f);
            if (it == env.end() && !env_open) {
              add("PT102", Severity::kError, idx,
                  "packs column '" + f + "' which no op produces (it packs as null)");
            }
            packed.columns[f] = it != env.end() ? it->second : StaticType::kUnknown;
          }
        }
        auto pos = result.packed.find(op.bag);
        if (pos == result.packed.end()) {
          result.packed.emplace(op.bag, std::move(packed));
        } else {
          for (const auto& [name, type] : packed.columns) {
            auto [cpos, cinserted] = pos->second.columns.emplace(name, type);
            if (!cinserted) {
              cpos->second = JoinStaticTypes(cpos->second, type);
            }
          }
        }
        break;
      }
      case Advice::OpKind::kEmit: {
        has_effect = true;
        if (ctx_.query_id != 0 && op.query_id != ctx_.query_id) {
          add("PT201", Severity::kError, idx,
              "emits to query " + std::to_string(op.query_id) + " but this advice belongs to query " +
                  std::to_string(ctx_.query_id));
        }
        if (op.fields.empty()) {
          result.emits_all = true;
        } else {
          for (const auto& f : op.fields) {
            if (env.count(f) == 0 && !env_open) {
              add("PT102", Severity::kError, idx,
                  "emits column '" + f + "' which no op produces (it emits as null)");
            }
            if (std::find(result.emitted_columns.begin(), result.emitted_columns.end(), f) ==
                result.emitted_columns.end()) {
              result.emitted_columns.push_back(f);
            }
          }
        }
        break;
      }
    }
  }

  if (!has_effect) {
    report.Add("PT108", Severity::kWarning, tp_name, -1,
               "advice has no effect: it neither packs nor emits");
  }
  return result;
}

}  // namespace analysis
}  // namespace pivot
