#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rand.h"
#include "src/core/aggregation.h"

namespace pivot {
namespace {

Tuple Row(std::string g, int64_t v) {
  return Tuple{{"g", Value(std::move(g))}, {"v", Value(v)}};
}

TEST(AggregatorTest, CountGrouped) {
  Aggregator agg({"g"}, {{AggFn::kCount, "", "COUNT", false}});
  agg.AddInput(Row("a", 1));
  agg.AddInput(Row("a", 2));
  agg.AddInput(Row("b", 3));
  auto out = agg.Finalize();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].Get("g").string_value(), "a");
  EXPECT_EQ(out[0].Get("COUNT").int_value(), 2);
  EXPECT_EQ(out[1].Get("COUNT").int_value(), 1);
}

TEST(AggregatorTest, SumSkipsNulls) {
  Aggregator agg({}, {{AggFn::kSum, "v", "SUM(v)", false}});
  agg.AddInput(Row("a", 5));
  agg.AddInput(Tuple{{"g", Value("a")}});  // v missing -> null
  agg.AddInput(Row("a", 7));
  auto out = agg.Finalize();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].Get("SUM(v)").int_value(), 12);
}

TEST(AggregatorTest, MinMax) {
  Aggregator agg({}, {{AggFn::kMin, "v", "MIN(v)", false}, {AggFn::kMax, "v", "MAX(v)", false}});
  for (int64_t v : {5, -2, 9, 0}) {
    agg.AddInput(Row("x", v));
  }
  auto out = agg.Finalize();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].Get("MIN(v)").int_value(), -2);
  EXPECT_EQ(out[0].Get("MAX(v)").int_value(), 9);
}

TEST(AggregatorTest, AverageFinalizesAsDouble) {
  Aggregator agg({}, {{AggFn::kAverage, "v", "AVERAGE(v)", false}});
  agg.AddInput(Row("x", 1));
  agg.AddInput(Row("x", 2));
  agg.AddInput(Row("x", 4));
  auto out = agg.Finalize();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].Get("AVERAGE(v)").AsDouble(), 7.0 / 3.0, 1e-9);
}

TEST(AggregatorTest, EmptyGroupFinalizesCountZero) {
  Aggregator agg({}, {{AggFn::kCount, "", "COUNT", false}});
  EXPECT_TRUE(agg.Finalize().empty());
  EXPECT_TRUE(agg.empty());
}

TEST(AggregatorTest, GroupKeysDistinguishTypes) {
  Aggregator agg({"g"}, {{AggFn::kCount, "", "COUNT", false}});
  agg.AddInput(Tuple{{"g", Value(int64_t{1})}});
  agg.AddInput(Tuple{{"g", Value("1")}});
  EXPECT_EQ(agg.group_count(), 2u);
}

TEST(AggregatorTest, GroupOutputInInsertionOrder) {
  Aggregator agg({"g"}, {{AggFn::kCount, "", "COUNT", false}});
  agg.AddInput(Row("z", 1));
  agg.AddInput(Row("a", 1));
  agg.AddInput(Row("z", 1));
  auto out = agg.Finalize();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].Get("g").string_value(), "z");
  EXPECT_EQ(out[1].Get("g").string_value(), "a");
}

TEST(AggregatorTest, InsertionOrderSurvivesIndexGrowth) {
  // Hundreds of distinct keys force the hashed index through several
  // rehashes; output order must remain first-seen order throughout.
  Aggregator agg({"g"}, {{AggFn::kCount, "", "COUNT", false}});
  constexpr int kGroups = 300;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kGroups; ++i) {
      agg.AddInput(Row("k" + std::to_string(i), i));
    }
  }
  auto out = agg.Finalize();
  ASSERT_EQ(out.size(), static_cast<size_t>(kGroups));
  for (int i = 0; i < kGroups; ++i) {
    EXPECT_EQ(out[i].Get("g").string_value(), "k" + std::to_string(i));
    EXPECT_EQ(out[i].Get("COUNT").int_value(), 3);
  }
}

TEST(AggregatorTest, NumericallyEqualKeysOfDifferentTypesStaySeparate) {
  // The hashed index must keep the canonical-key semantics: int 1,
  // double 1.0 and string "1" are three groups even though Value::Compare
  // calls the numerics equal.
  Aggregator agg({"g"}, {{AggFn::kCount, "", "COUNT", false}});
  agg.AddInput(Tuple{{"g", Value(int64_t{1})}});
  agg.AddInput(Tuple{{"g", Value(1.0)}});
  agg.AddInput(Tuple{{"g", Value("1")}});
  agg.AddInput(Tuple{{"g", Value(int64_t{1})}});
  EXPECT_EQ(agg.group_count(), 3u);
  auto out = agg.Finalize();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].Get("COUNT").int_value(), 2);  // The two int 1s coalesced.
}

TEST(AggregatorTest, CollisionHeavyKeysStayDistinct) {
  // Multi-field keys sharing long prefixes and numeric twins stress probe
  // chains: every distinct (a, b) pair must remain its own group, and
  // re-adding each key must find the existing group, not insert a twin.
  Aggregator agg({"a", "b"}, {{AggFn::kCount, "", "COUNT", false}});
  std::vector<Tuple> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(Tuple{{"a", Value(std::string(100, 'x') + std::to_string(i))},
                         {"b", Value(static_cast<int64_t>(i % 4))}});
    keys.push_back(Tuple{{"a", Value(std::string(100, 'x') + std::to_string(i))},
                         {"b", Value(static_cast<double>(i % 4))}});
  }
  for (int round = 0; round < 2; ++round) {
    for (const auto& k : keys) {
      agg.AddInput(k);
    }
  }
  EXPECT_EQ(agg.group_count(), keys.size());
  for (const auto& t : agg.Finalize()) {
    EXPECT_EQ(t.Get("COUNT").int_value(), 2);
  }
}

TEST(AggregatorTest, MissingGroupFieldProjectsToNullGroup) {
  // Rows missing the group field coalesce into one null-keyed group — same
  // as the canonical-string index did.
  Aggregator agg({"g"}, {{AggFn::kCount, "", "COUNT", false}});
  agg.AddInput(Tuple{{"v", Value(int64_t{1})}});
  agg.AddInput(Tuple{{"v", Value(int64_t{2})}});
  agg.AddInput(Row("a", 3));
  EXPECT_EQ(agg.group_count(), 2u);
  auto out = agg.Finalize();
  EXPECT_EQ(out[0].Get("COUNT").int_value(), 2);
  EXPECT_TRUE(out[0].Get("g").is_null());
}

TEST(AggregatorTest, StateRoundTripThroughAddState) {
  const std::vector<AggSpec> specs = {{AggFn::kAverage, "v", "AVG", false},
                                      {AggFn::kCount, "", "C", false}};
  Aggregator a({"g"}, specs);
  a.AddInput(Row("x", 10));
  a.AddInput(Row("x", 20));
  a.AddInput(Row("y", 5));

  Aggregator b({"g"}, specs);
  for (const auto& st : a.StateTuples()) {
    b.AddState(st);
  }
  auto fa = a.Finalize();
  auto fb = b.Finalize();
  ASSERT_EQ(fa.size(), fb.size());
  for (size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].ToString(), fb[i].ToString());
  }
}

TEST(AggregatorTest, FromStateInputCombines) {
  // Pack-side aggregator produced partial sums named "SUM(v)"; the emit-side
  // spec with from_state combines them instead of re-summing raw values.
  Aggregator packed({"g"}, {{AggFn::kSum, "v", "SUM(v)", false}});
  packed.AddInput(Row("a", 3));
  packed.AddInput(Row("a", 4));

  Aggregator emit({"g"}, {{AggFn::kSum, "SUM(v)", "SUM(v)", true}});
  for (const auto& st : packed.StateTuples()) {
    emit.AddInput(st);
  }
  auto out = emit.Finalize();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].Get("SUM(v)").int_value(), 7);
}

TEST(AggregatorTest, AverageStateCarriesCount) {
  AggSpec avg{AggFn::kAverage, "v", "A", false};
  EXPECT_EQ(avg.StateColumns(), (std::vector<std::string>{"A", "A#n"}));
  Aggregator a({}, {avg});
  a.AddInput(Row("x", 2));
  a.AddInput(Row("x", 4));
  auto st = a.StateTuples();
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].Get("A").int_value(), 6);
  EXPECT_EQ(st[0].Get("A#n").int_value(), 2);
}

TEST(AggregatorTest, ClearResets) {
  Aggregator agg({}, {{AggFn::kCount, "", "COUNT", false}});
  agg.AddInput(Row("x", 1));
  agg.Clear();
  EXPECT_TRUE(agg.empty());
  EXPECT_TRUE(agg.Finalize().empty());
}

// ResultSet: one query's results at one level of the combine tree.

std::vector<std::string> Rendered(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  for (const Tuple& t : rows) {
    out.push_back(t.ToString());
  }
  return out;
}

TEST(ResultSetTest, StreamingKeepsArrivalOrderAcrossLevels) {
  ResultPlan streaming;  // No group fields, no aggregates.
  ResultSet shard(streaming);
  ResultSet interval(streaming);
  shard.AddInput(Row("c", 3));
  shard.AddInput(Row("a", 1));
  interval.Absorb(shard.Take());
  shard.AddInput(Row("b", 2));
  interval.Absorb(shard.Take());
  EXPECT_EQ(Rendered(interval.Finalize()),
            (std::vector<std::string>{"(g=c, v=3)", "(g=a, v=1)", "(g=b, v=2)"}));
}

TEST(ResultSetTest, TwoLevelsOfAbsorbFinalizeLikeOneAggregator) {
  ResultPlan plan;
  plan.group_fields = {"g"};
  plan.aggs = {{AggFn::kAverage, "v", "AVG", false},
               {AggFn::kCount, "", "COUNT", false},
               {AggFn::kMax, "v", "MAX", false}};
  Aggregator direct(plan.group_fields, plan.aggs);
  ResultSet shard1(plan);
  ResultSet shard2(plan);
  ResultSet interval(plan);
  ResultSet total(plan);
  const std::vector<Tuple> rows = {Row("a", 1), Row("b", 4), Row("a", 2),
                                   Row("b", 7), Row("a", 6)};
  for (size_t i = 0; i < rows.size(); ++i) {
    direct.AddInput(rows[i]);
    (i % 2 == 0 ? shard1 : shard2).AddInput(rows[i]);
  }
  interval.Absorb(shard1.Take());
  interval.Absorb(shard2.Take());
  total.Absorb(interval.Take());
  EXPECT_EQ(Rendered(total.Finalize()), Rendered(direct.Finalize()));
  EXPECT_EQ(Rendered(total.Finalize()),
            (std::vector<std::string>{"(g=a, AVG=3.0, COUNT=3, MAX=6)",
                                      "(g=b, AVG=5.5, COUNT=2, MAX=7)"}));
}

TEST(ResultSetTest, TakeLeavesTheSetEmpty) {
  ResultPlan counting;
  counting.aggs = {{AggFn::kCount, "", "COUNT", false}};
  for (const ResultPlan& plan : {counting, ResultPlan{}}) {
    ResultSet set(plan);
    EXPECT_TRUE(set.empty());
    set.AddInput(Row("a", 1));
    EXPECT_FALSE(set.empty());
    EXPECT_EQ(set.Take().size(), 1u);
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(set.Finalize().empty());
    EXPECT_TRUE(set.Take().empty());
  }
}

// Property: partial aggregation + combining equals direct aggregation, for
// every aggregate function, over random inputs and random partitionings —
// the correctness condition behind Table 3's Combine and the agent/frontend
// two-level aggregation.
class CombinePropertyTest : public ::testing::TestWithParam<AggFn> {};

TEST_P(CombinePropertyTest, PartitionedEqualsDirect) {
  AggFn fn = GetParam();
  AggSpec spec{fn, fn == AggFn::kCount ? "" : "v", "out", false};
  Rng rng(static_cast<uint64_t>(fn) * 7919 + 1);

  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Tuple> rows;
    int n = static_cast<int>(rng.NextBelow(60));
    for (int i = 0; i < n; ++i) {
      rows.push_back(Row(std::string(1, static_cast<char>('a' + rng.NextBelow(4))),
                         rng.NextInt(-50, 50)));
    }

    Aggregator direct({"g"}, {spec});
    for (const auto& r : rows) {
      direct.AddInput(r);
    }

    // Random partition into up to 5 partial aggregators, combined at the end.
    std::vector<Aggregator> parts;
    for (int p = 0; p < 5; ++p) {
      parts.emplace_back(std::vector<std::string>{"g"}, std::vector<AggSpec>{spec});
    }
    for (const auto& r : rows) {
      parts[rng.NextBelow(parts.size())].AddInput(r);
    }
    Aggregator combined({"g"}, {spec});
    for (auto& part : parts) {
      for (const auto& st : part.StateTuples()) {
        combined.AddState(st);
      }
    }

    auto canonical = [](std::vector<Tuple> rows_in) {
      std::vector<std::string> strs;
      strs.reserve(rows_in.size());
      for (const auto& r : rows_in) {
        strs.push_back(r.ToString());
      }
      std::sort(strs.begin(), strs.end());
      return strs;
    };
    ASSERT_EQ(canonical(direct.Finalize()), canonical(combined.Finalize()))
        << "fn=" << AggFnName(fn) << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFns, CombinePropertyTest,
                         ::testing::Values(AggFn::kCount, AggFn::kSum, AggFn::kMin, AggFn::kMax,
                                           AggFn::kAverage),
                         [](const ::testing::TestParamInfo<AggFn>& info) {
                           return AggFnName(info.param);
                         });

}  // namespace
}  // namespace pivot
