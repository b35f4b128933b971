#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/core/value.h"

namespace pivot {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "null");
}

TEST(ValueTest, IntValue) {
  Value v(int64_t{42});
  EXPECT_TRUE(v.is_int());
  EXPECT_TRUE(v.is_numeric());
  EXPECT_EQ(v.int_value(), 42);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(ValueTest, DoubleValue) {
  Value v(2.5);
  EXPECT_TRUE(v.is_double());
  EXPECT_EQ(v.double_value(), 2.5);
}

TEST(ValueTest, StringValue) {
  Value v("host-A");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.string_value(), "host-A");
  EXPECT_EQ(v.ToString(), "host-A");
}

TEST(ValueTest, AsDoubleCoercions) {
  EXPECT_EQ(Value(int64_t{3}).AsDouble(), 3.0);
  EXPECT_EQ(Value(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Value().AsDouble(), 0.0);
  EXPECT_EQ(Value("xyz").AsDouble(), 0.0);
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value().AsBool());
  EXPECT_FALSE(Value(int64_t{0}).AsBool());
  EXPECT_TRUE(Value(int64_t{1}).AsBool());
  EXPECT_FALSE(Value(0.0).AsBool());
  EXPECT_TRUE(Value(0.1).AsBool());
  EXPECT_FALSE(Value("").AsBool());
  EXPECT_TRUE(Value("x").AsBool());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
}

TEST(ValueTest, TypeRankOrdering) {
  // null < numbers < strings.
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);
  EXPECT_LT(Value(int64_t{999}).Compare(Value("a")), 0);
  EXPECT_GT(Value("a").Compare(Value(999.0)), 0);
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value("A").Compare(Value("B")), 0);
  EXPECT_EQ(Value("A").Compare(Value("A")), 0);
}

TEST(ValueTest, EqualityOperators) {
  EXPECT_TRUE(Value(int64_t{5}) == Value(5.0));
  EXPECT_TRUE(Value("a") != Value("b"));
  EXPECT_TRUE(Value() == Value());
}

TEST(ValueArithmeticTest, IntAddition) {
  Value r = ValueAdd(Value(int64_t{2}), Value(int64_t{3}));
  ASSERT_TRUE(r.is_int());
  EXPECT_EQ(r.int_value(), 5);
}

TEST(ValueArithmeticTest, MixedPromotesToDouble) {
  Value r = ValueAdd(Value(int64_t{2}), Value(0.5));
  ASSERT_TRUE(r.is_double());
  EXPECT_EQ(r.double_value(), 2.5);
}

TEST(ValueArithmeticTest, StringConcatenation) {
  Value r = ValueAdd(Value("a"), Value("b"));
  ASSERT_TRUE(r.is_string());
  EXPECT_EQ(r.string_value(), "ab");
}

TEST(ValueArithmeticTest, SubtractionAndNegatives) {
  EXPECT_EQ(ValueSub(Value(int64_t{3}), Value(int64_t{5})).int_value(), -2);
}

TEST(ValueArithmeticTest, Multiplication) {
  EXPECT_EQ(ValueMul(Value(int64_t{4}), Value(int64_t{6})).int_value(), 24);
  EXPECT_EQ(ValueMul(Value(2.0), Value(int64_t{3})).double_value(), 6.0);
}

TEST(ValueArithmeticTest, IntegerDivisionTruncates) {
  EXPECT_EQ(ValueDiv(Value(int64_t{7}), Value(int64_t{2})).int_value(), 3);
}

TEST(ValueArithmeticTest, DoubleDivision) {
  EXPECT_EQ(ValueDiv(Value(7.0), Value(int64_t{2})).double_value(), 3.5);
}

TEST(ValueArithmeticTest, DivisionByZeroYieldsNull) {
  EXPECT_TRUE(ValueDiv(Value(int64_t{1}), Value(int64_t{0})).is_null());
  EXPECT_TRUE(ValueDiv(Value(1.0), Value(0.0)).is_null());
  EXPECT_TRUE(ValueMod(Value(int64_t{1}), Value(int64_t{0})).is_null());
}

TEST(ValueArithmeticTest, TypeErrorsYieldNull) {
  EXPECT_TRUE(ValueAdd(Value("a"), Value(int64_t{1})).is_null());
  EXPECT_TRUE(ValueSub(Value("a"), Value("b")).is_null());
  EXPECT_TRUE(ValueMul(Value(), Value(int64_t{2})).is_null());
}

TEST(ValueArithmeticTest, Modulo) {
  EXPECT_EQ(ValueMod(Value(int64_t{7}), Value(int64_t{3})).int_value(), 1);
  EXPECT_TRUE(ValueMod(Value(7.0), Value(int64_t{3})).is_null());
}

// int64 arithmetic follows the JVM `long` rules: it wraps instead of
// overflowing, and the one quotient that does not fit is INT64_MIN.
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

TEST(ValueArithmeticTest, Int64OverflowWraps) {
  EXPECT_EQ(ValueAdd(Value(kMax), Value(int64_t{1})).int_value(), kMin);
  EXPECT_EQ(ValueAdd(Value(kMin), Value(kMin)).int_value(), 0);
  EXPECT_EQ(ValueSub(Value(kMin), Value(int64_t{1})).int_value(), kMax);
  EXPECT_EQ(ValueSub(Value(int64_t{0}), Value(kMin)).int_value(), kMin);  // -INT64_MIN.
  EXPECT_EQ(ValueMul(Value(kMax), Value(int64_t{2})).int_value(), -2);
  EXPECT_EQ(ValueMul(Value(kMin), Value(int64_t{-1})).int_value(), kMin);
}

TEST(ValueArithmeticTest, Int64MinByMinusOneDoesNotTrap) {
  EXPECT_EQ(ValueDiv(Value(kMin), Value(int64_t{-1})).int_value(), kMin);
  EXPECT_EQ(ValueMod(Value(kMin), Value(int64_t{-1})).int_value(), 0);
  EXPECT_EQ(ValueDiv(Value(int64_t{7}), Value(int64_t{-1})).int_value(), -7);
  EXPECT_EQ(ValueMod(Value(int64_t{7}), Value(int64_t{-1})).int_value(), 0);
  EXPECT_EQ(ValueDiv(Value(kMin), Value(int64_t{2})).int_value(), kMin / 2);
}

TEST(ValueTest, OutOfRangeDoublesRender) {
  EXPECT_EQ(Value(1e300).ToString(), "1e+300");
  EXPECT_EQ(Value(-1e300).ToString(), "-1e+300");
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).ToString(), "inf");
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).ToString(), "nan");
  EXPECT_EQ(Value(1e14).ToString(), "100000000000000.0");
  EXPECT_EQ(Value(1e15).ToString(), "1e+15");
}

}  // namespace
}  // namespace pivot
