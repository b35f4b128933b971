#include "src/core/value.h"

#include <cmath>

#include "src/common/strings.h"

namespace pivot {

double Value::AsDouble() const {
  switch (type()) {
    case ValueType::kNull:
      return 0.0;
    case ValueType::kInt:
      return static_cast<double>(int_value());
    case ValueType::kDouble:
      return double_value();
    case ValueType::kString:
      return 0.0;
  }
  return 0.0;
}

bool Value::AsBool() const {
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return int_value() != 0;
    case ValueType::kDouble:
      return double_value() != 0.0;
    case ValueType::kString:
      return !string_value().empty();
  }
  return false;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return std::to_string(int_value());
    case ValueType::kDouble: {
      double d = double_value();
      // The magnitude check comes first: casting 1e300, inf or NaN to int64
      // is undefined.
      if (std::abs(d) < 1e15 && d == static_cast<double>(static_cast<int64_t>(d))) {
        return StrFormat("%.1f", d);
      }
      return StrFormat("%g", d);
    }
    case ValueType::kString:
      return string_value();
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  // Numeric types compare cross-type; otherwise order by type rank.
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) {
      int64_t a = int_value();
      int64_t b = other.int_value();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsDouble();
    double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  auto rank = [](ValueType t) {
    switch (t) {
      case ValueType::kNull:
        return 0;
      case ValueType::kInt:
      case ValueType::kDouble:
        return 1;
      case ValueType::kString:
        return 2;
    }
    return 3;
  };
  int ra = rank(type());
  int rb = rank(other.type());
  if (ra != rb) {
    return ra < rb ? -1 : 1;
  }
  if (is_string()) {
    int c = string_value().compare(other.string_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return 0;  // Both null.
}

namespace {

enum class NumKind { kBothInt, kMixed, kNonNumeric };

NumKind Classify(const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return NumKind::kNonNumeric;
  }
  return (a.is_int() && b.is_int()) ? NumKind::kBothInt : NumKind::kMixed;
}

// int64 arithmetic follows the JVM `long` rules of the paper's prototype:
// +, - and * wrap mod 2^64 (computed in uint64_t, so no signed overflow), and
// INT64_MIN / -1 is INT64_MIN with remainder 0 (the native forms trap).
// Wrapping keeps SUM's combiner associative and commutative, so partial sums
// merge exactly in any order.
int64_t Wrap(uint64_t v) { return static_cast<int64_t>(v); }
uint64_t Bits(const Value& v) { return static_cast<uint64_t>(v.int_value()); }

}  // namespace

Value ValueAdd(const Value& a, const Value& b) {
  if (a.is_string() && b.is_string()) {
    return Value(a.string_value() + b.string_value());
  }
  switch (Classify(a, b)) {
    case NumKind::kBothInt:
      return Value(Wrap(Bits(a) + Bits(b)));
    case NumKind::kMixed:
      return Value(a.AsDouble() + b.AsDouble());
    case NumKind::kNonNumeric:
      return Value();
  }
  return Value();
}

Value ValueSub(const Value& a, const Value& b) {
  switch (Classify(a, b)) {
    case NumKind::kBothInt:
      return Value(Wrap(Bits(a) - Bits(b)));
    case NumKind::kMixed:
      return Value(a.AsDouble() - b.AsDouble());
    case NumKind::kNonNumeric:
      return Value();
  }
  return Value();
}

Value ValueMul(const Value& a, const Value& b) {
  switch (Classify(a, b)) {
    case NumKind::kBothInt:
      return Value(Wrap(Bits(a) * Bits(b)));
    case NumKind::kMixed:
      return Value(a.AsDouble() * b.AsDouble());
    case NumKind::kNonNumeric:
      return Value();
  }
  return Value();
}

Value ValueDiv(const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return Value();
  }
  if (a.is_int() && b.is_int()) {
    if (b.int_value() == 0) {
      return Value();
    }
    if (b.int_value() == -1) {
      return Value(Wrap(0 - Bits(a)));  // INT64_MIN / -1 wraps to INT64_MIN.
    }
    // Integer division truncates, matching LINQ/C semantics.
    return Value(a.int_value() / b.int_value());
  }
  double denom = b.AsDouble();
  if (denom == 0.0) {
    return Value();
  }
  return Value(a.AsDouble() / denom);
}

Value ValueMod(const Value& a, const Value& b) {
  if (!a.is_int() || !b.is_int() || b.int_value() == 0) {
    return Value();
  }
  if (b.int_value() == -1) {
    return Value(int64_t{0});  // INT64_MIN % -1 would trap.
  }
  return Value(a.int_value() % b.int_value());
}

}  // namespace pivot
