// Value: the dynamically-typed scalar carried in Pivot Tracing tuples.
//
// Tracepoints export named variables (§3 of the paper); queries manipulate them
// as relational columns. Values are null, 64-bit integers, doubles, or strings.
// Booleans produced by predicates are represented as int64 0/1.

#ifndef PIVOT_SRC_CORE_VALUE_H_
#define PIVOT_SRC_CORE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

namespace pivot {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
};

class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(int64_t v) : v_(v) {}             // NOLINT(google-explicit-constructor)
  Value(int v) : v_(int64_t{v}) {}        // NOLINT(google-explicit-constructor)
  Value(double v) : v_(v) {}              // NOLINT(google-explicit-constructor)
  Value(std::string v) : v_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* v) : v_(std::string(v)) {}  // NOLINT(google-explicit-constructor)
  Value(std::string_view v) : v_(std::string(v)) {}  // NOLINT(google-explicit-constructor)

  ValueType type() const { return static_cast<ValueType>(v_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_int() const { return type() == ValueType::kInt; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_numeric() const { return is_int() || is_double(); }

  // Accessors assert the type in debug builds; callers check type() first or
  // use the As* coercions below.
  int64_t int_value() const { return std::get<int64_t>(v_); }
  double double_value() const { return std::get<double>(v_); }
  const std::string& string_value() const { return std::get<std::string>(v_); }

  // Numeric coercion: ints widen to double, null coerces to 0. Strings coerce
  // to 0 (queries comparing strings numerically are a user error the static
  // analyzer flags as PT103, see src/analysis/advice_verifier.h; this keeps
  // the evaluator total).
  double AsDouble() const;
  // Truthiness: null/0/0.0/"" are false, everything else true.
  bool AsBool() const;

  // Rendering for result tables and debugging.
  std::string ToString() const;

  // Ordering: null < numbers < strings; int/double compare numerically.
  // Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

// Arithmetic used by query Select/Where expressions. Numeric promotion:
// int op int -> int, otherwise double. `Add` concatenates strings. Division by
// zero and type mismatches yield null (the evaluator is total; the static
// analyzer in src/analysis/ rejects statically-detectable type errors before
// install — PT103 for string/numeric confusion, PT110 for literal-zero
// division — so nulls here mean data-dependent surprises, not typos).
Value ValueAdd(const Value& a, const Value& b);
Value ValueSub(const Value& a, const Value& b);
Value ValueMul(const Value& a, const Value& b);
Value ValueDiv(const Value& a, const Value& b);
Value ValueMod(const Value& a, const Value& b);

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_VALUE_H_
