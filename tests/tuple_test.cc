#include <gtest/gtest.h>

#include "src/core/tuple.h"

namespace pivot {
namespace {

TEST(TupleTest, EmptyTuple) {
  Tuple t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.Get("missing").is_null());
  EXPECT_EQ(t.Find(InternSymbol("missing")), nullptr);
}

TEST(TupleTest, AppendAndGet) {
  Tuple t;
  t.Append("host", Value("A"));
  t.Append("delta", Value(int64_t{100}));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.Get("host").string_value(), "A");
  EXPECT_EQ(t.Get("delta").int_value(), 100);
  ASSERT_NE(t.Find(InternSymbol("host")), nullptr);
  EXPECT_EQ(t.Find(InternSymbol("host"))->string_value(), "A");
}

TEST(TupleTest, ConcatJoinsFieldsInOrder) {
  Tuple a{{"a.x", Value(int64_t{1})}};
  Tuple b{{"b.y", Value(int64_t{2})}};
  Tuple joined = a.Concat(b);
  EXPECT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined.field(0).name(), "a.x");
  EXPECT_EQ(joined.field(1).name(), "b.y");
}

TEST(TupleTest, GetReturnsFirstOnDuplicates) {
  Tuple a{{"x", Value(int64_t{1})}};
  Tuple b{{"x", Value(int64_t{2})}};
  EXPECT_EQ(a.Concat(b).Get("x").int_value(), 1);
}

TEST(TupleTest, ProjectPreservesRequestedOrder) {
  Tuple t{{"a", Value(int64_t{1})}, {"b", Value(int64_t{2})}, {"c", Value(int64_t{3})}};
  Tuple p = t.Project(InternSymbols({"c", "a"}));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.field(0).name(), "c");
  EXPECT_EQ(p.field(1).name(), "a");
}

TEST(TupleTest, ProjectMissingYieldsNull) {
  Tuple t{{"a", Value(int64_t{1})}};
  Tuple p = t.Project(InternSymbols({"zzz"}));
  ASSERT_EQ(p.size(), 1u);
  EXPECT_TRUE(p.Get("zzz").is_null());
}

TEST(TupleTest, ToString) {
  Tuple t{{"host", Value("A")}, {"n", Value(int64_t{3})}};
  EXPECT_EQ(t.ToString(), "(host=A, n=3)");
}

TEST(TupleTest, Equality) {
  Tuple a{{"x", Value(int64_t{1})}};
  Tuple b{{"x", Value(int64_t{1})}};
  Tuple c{{"x", Value(int64_t{2})}};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace pivot
