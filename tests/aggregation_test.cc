#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rand.h"
#include "src/core/aggregation.h"
#include "src/core/wire.h"

namespace pivot {
namespace {

Tuple Row(std::string g, int64_t v) {
  return Tuple{{"g", Value(std::move(g))}, {"v", Value(v)}};
}

std::vector<std::string> Rendered(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  for (const Tuple& t : rows) {
    out.push_back(t.ToString());
  }
  return out;
}

std::vector<std::string> CanonicalRows(const std::vector<Tuple>& rows) {
  std::vector<std::string> out = Rendered(rows);
  std::sort(out.begin(), out.end());
  return out;
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
  // Partial state combines set to set through ResultSet::Absorb: by copy and
  // by move, into an empty set (which adopts it) and into a populated one
  // (which merges it group by group).
  ResultPlan plan;
  plan.group_fields = {"g"};
  plan.aggs = {{AggFn::kAverage, "v", "AVG", false}, {AggFn::kCount, "", "C", false}};
  ResultSet a(plan);
  a.AddInput(Row("x", 10));
  a.AddInput(Row("x", 20));
  a.AddInput(Row("y", 5));
  const std::vector<std::string> once = {"(g=x, AVG=15.0, C=2)", "(g=y, AVG=5.0, C=1)"};

  ResultSet copied(plan);
  copied.Absorb(a);
  EXPECT_EQ(Rendered(copied.Finalize()), once);
  copied.Absorb(a);
  EXPECT_EQ(Rendered(copied.Finalize()),
            (std::vector<std::string>{"(g=x, AVG=15.0, C=4)", "(g=y, AVG=5.0, C=2)"}));
  EXPECT_EQ(Rendered(a.Finalize()), once);

  ResultSet moved(plan);
  ResultSet source = a;
  moved.Absorb(std::move(source));
  EXPECT_EQ(Rendered(moved.Finalize()), once);
  ResultSet later(plan);
  later.AddInput(Row("z", 1));
  later.AddInput(Row("x", 30));
  moved.Absorb(std::move(later));
  EXPECT_EQ(Rendered(moved.Finalize()),
            (std::vector<std::string>{"(g=x, AVG=20.0, C=3)", "(g=y, AVG=5.0, C=1)",
                                      "(g=z, AVG=1.0, C=1)"}));
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

TEST(ResultSetTest, StreamingKeepsArrivalOrderAcrossLevels) {
  ResultPlan streaming;  // No group fields, no aggregates.
  ResultSet shard(streaming);
  ResultSet interval(streaming);
  shard.AddInput(Row("c", 3));
  shard.AddInput(Row("a", 1));
  interval.Absorb(std::move(shard));
  shard.AddInput(Row("b", 2));
  interval.Absorb(std::move(shard));
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
  interval.Absorb(std::move(shard1));
  interval.Absorb(std::move(shard2));
  total.Absorb(interval);
  EXPECT_EQ(Rendered(total.Finalize()), Rendered(direct.Finalize()));
  EXPECT_EQ(Rendered(total.Finalize()),
            (std::vector<std::string>{"(g=a, AVG=3.0, COUNT=3, MAX=6)",
                                      "(g=b, AVG=5.5, COUNT=2, MAX=7)"}));
}

TEST(ResultSetTest, AbsorbMoveLeavesTheSourceEmpty) {
  ResultPlan counting;
  counting.aggs = {{AggFn::kCount, "", "COUNT", false}};
  for (const ResultPlan& plan : {counting, ResultPlan{}}) {
    ResultSet set(plan);
    ResultSet target = set.EmptyLike();
    EXPECT_TRUE(set.empty());
    set.AddInput(Row("a", 1));
    EXPECT_FALSE(set.empty());
    target.Absorb(std::move(set));  // Empty target: adopts the set whole.
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(set.Finalize().empty());
    set.AddInput(Row("b", 2));
    target.Absorb(std::move(set));  // Non-empty target: merges.
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(target.size(), plan.aggregated() ? 1u : 2u);
    ResultSet copy = target.EmptyLike();
    copy.Absorb(target);  // Copying leaves the source as it was.
    EXPECT_EQ(copy.size(), target.size());
  }
}

// Reads one encoded set from data[*pos, size) into `set` as a report reader
// does: its frame, then its values under the set's own column names.
bool Decode(ResultSet* set, const uint8_t* data, size_t size, size_t* pos) {
  SetFrame frame;
  return SetFrame::Get(data, size, pos, &frame) && set->DecodeNamed(set->ColumnNames(), frame);
}

// Steps over one encoded set of `width` columns, validating its values.
bool Skip(size_t width, const uint8_t* data, size_t size, size_t* pos) {
  SetFrame frame;
  return SetFrame::Get(data, size, pos, &frame) && frame.Fits(width);
}

TEST(ResultSetTest, WireRoundTripKeepsGroupsAndOrder) {
  ResultPlan plan;
  plan.group_fields = {"g", "h"};
  plan.aggs = {{AggFn::kAverage, "v", "AVG", false}, {AggFn::kMin, "v", "MIN", false}};
  ResultSet set(plan);
  set.AddInput(Tuple{{"g", Value("z")}, {"h", Value(1.5)}, {"v", Value(int64_t{4})}});
  set.AddInput(Tuple{{"v", Value(int64_t{2})}});  // Null key, two fields.
  set.AddInput(Tuple{{"g", Value("z")}, {"h", Value(1.5)}, {"v", Value(int64_t{8})}});
  set.AddInput(Tuple{{"g", Value(int64_t{1})}});  // No v: AVG and MIN stay null.
  std::vector<uint8_t> bytes;
  set.Encode(&bytes);
  ResultSet decoded = set.EmptyLike();
  size_t pos = 0;
  ASSERT_TRUE(Decode(&decoded, bytes.data(), bytes.size(), &pos));
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(Rendered(decoded.Finalize()), Rendered(set.Finalize()));
  EXPECT_EQ(Rendered(decoded.Finalize()),
            (std::vector<std::string>{"(g=z, h=1.5, AVG=6.0, MIN=4)", "(g=null, h=null, AVG=2.0, MIN=2)",
                                      "(g=1, h=null, AVG=null, MIN=null)"}));
  const size_t width = set.ColumnNames().size();
  pos = 0;
  EXPECT_TRUE(Skip(width, bytes.data(), bytes.size(), &pos));
  EXPECT_EQ(pos, bytes.size());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ResultSet partial = set.EmptyLike();
    pos = 0;
    EXPECT_FALSE(Decode(&partial, bytes.data(), cut, &pos)) << "cut=" << cut;
    pos = 0;
    EXPECT_FALSE(Skip(width, bytes.data(), cut, &pos)) << "cut=" << cut;
  }
}

TEST(ResultSetTest, EncodeNamedRoundTripsEveryRowAndDrop) {
  // A streaming set whose rows change columns seals into one slice per run;
  // Encode alone would write every row in the first row's columns.
  ResultSet rows{ResultPlan{}};
  rows.AddInput(Tuple{{"a", Value(int64_t{1})}, {"b", Value("x")}});
  rows.AddInput(Tuple{{"a", Value(int64_t{2})}, {"b", Value("y")}});
  rows.AddInput(Tuple{{"b", Value("z")}});
  rows.AddInput(Tuple());
  rows.AddInput(Tuple{{"b", Value(int64_t{3})}, {"a", Value(0.5)}});
  rows.AddInput(Tuple{{"a", Value(int64_t{4})}, {"b", Value("w")}});
  rows.AddDropped(7);
  std::vector<uint8_t> bytes;
  rows.EncodeNamed(&bytes);
  ResultSet decoded = rows.EmptyLike();
  ASSERT_TRUE(decoded.DecodeSlices(bytes));
  EXPECT_EQ(Rendered(decoded.Finalize()), Rendered(rows.Finalize()));
  EXPECT_EQ(decoded.dropped(), 7u);

  ResultPlan plan;
  plan.group_fields = {"g"};
  plan.aggs = {{AggFn::kAverage, "v", "AVG", false}, {AggFn::kCount, "", "COUNT", false}};
  ResultSet groups(plan);
  for (int i = 0; i < 20; ++i) {
    groups.AddInput(Row(std::to_string(i % 6), i));
  }
  groups.AddDropped(3);
  bytes.clear();
  groups.EncodeNamed(&bytes);
  ResultSet merged = groups.EmptyLike();
  ASSERT_TRUE(merged.DecodeSlices(bytes));
  EXPECT_EQ(Rendered(merged.Finalize()), Rendered(groups.Finalize()));
  EXPECT_EQ(merged.dropped(), 3u);

  // Empty sets seal too, and decode back to empty sets.
  for (const ResultSet* set : {&rows, &groups}) {
    ResultSet empty = set->EmptyLike();
    bytes.clear();
    empty.EncodeNamed(&bytes);
    ResultSet back = set->EmptyLike();
    ASSERT_TRUE(back.DecodeSlices(bytes));
    EXPECT_EQ(Rendered(back.Finalize()), Rendered(empty.Finalize()));
    EXPECT_EQ(back.dropped(), 0u);
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

    // Random partition into 5 partial sets, combined at the end through
    // ResultSet::Absorb, alternately by copy and by move. The first absorb
    // lands in an empty set.
    ResultPlan plan{{"g"}, {spec}};
    std::vector<ResultSet> parts(5, ResultSet(plan));
    for (const auto& r : rows) {
      parts[rng.NextBelow(parts.size())].AddInput(r);
    }
    ResultSet combined(plan);
    for (size_t p = 0; p < parts.size(); ++p) {
      if (p % 2 == 0) {
        combined.Absorb(parts[p]);
      } else {
        combined.Absorb(std::move(parts[p]));
      }
    }
    ASSERT_EQ(CanonicalRows(direct.Finalize()), CanonicalRows(combined.Finalize()))
        << "fn=" << AggFnName(fn) << " trial=" << trial;
  }
}

TEST(ResultSetTest, DecodeRejectsNonIntAverageCount) {
  ResultPlan plan;
  plan.aggs = {{AggFn::kAverage, "v", "AVG", false}};
  ResultSet set(plan);
  set.AddInput(Tuple{{"v", Value(int64_t{4})}});
  std::vector<uint8_t> bytes;
  set.Encode(&bytes);
  // The set is (one row, no drops, payload length, payload), and the one
  // row ends with its "AVG#n" column, int 1; make the count a string, one
  // byte longer.
  ASSERT_EQ(bytes[2], bytes.size() - 3);
  const std::vector<uint8_t> count = {1, 2};
  ASSERT_TRUE(std::equal(count.begin(), count.end(), bytes.end() - count.size()));
  bytes.resize(bytes.size() - 2);
  bytes.insert(bytes.end(), {3, 1, 'x'});
  ++bytes[2];
  ResultSet decoded = set.EmptyLike();
  size_t pos = 0;
  EXPECT_FALSE(Decode(&decoded, bytes.data(), bytes.size(), &pos));
}

TEST(ResultSetTest, DecodeRejectsNonIntCountState) {
  ResultPlan plan;
  plan.aggs = {{AggFn::kCount, "", "COUNT", false}};
  ResultSet set(plan);
  set.AddInput(Tuple{});
  std::vector<uint8_t> bytes;
  set.Encode(&bytes);
  // The set is (one row, no drops, payload length, payload), and the one
  // row is its "COUNT" column, int 1. A null count decodes as no count; a
  // double or a string count is refused.
  ASSERT_EQ(bytes[2], bytes.size() - 3);
  const std::vector<uint8_t> count = {1, 2};
  ASSERT_TRUE(std::equal(count.begin(), count.end(), bytes.end() - count.size()));
  bytes.resize(bytes.size() - 2);
  const size_t header = bytes.size();
  for (const Value& state : {Value(), Value(1.0), Value("1")}) {
    bytes.resize(header);
    PutValue(&bytes, state);
    bytes[2] = static_cast<uint8_t>(bytes.size() - 3);
    ResultSet decoded = set.EmptyLike();
    size_t pos = 0;
    EXPECT_EQ(Decode(&decoded, bytes.data(), bytes.size(), &pos), state.is_null())
        << state.ToString();
  }
}

// A key off the wire must be spelled as PutValue spells it: an int or a
// string length in an overlong varint would split one key into two groups.
TEST(ResultSetTest, DecodeRejectsOverlongKeyVarint) {
  ResultPlan plan;
  plan.group_fields = {"g"};
  plan.aggs = {{AggFn::kCount, "", "COUNT", false}};
  // One row's payload: the key's bytes, then COUNT int 1.
  auto frame = [](std::vector<uint8_t> key) {
    key.insert(key.end(), {1, 2});
    std::vector<uint8_t> bytes;
    SetFrame{1, false, 0, key.data(), key.size()}.Put(&bytes);
    return bytes;
  };
  const std::vector<uint8_t> canonical[] = {{1, 10}, {3, 2, 'a', 'b'}};  // 5, "ab".
  const std::vector<uint8_t> overlong[] = {{1, 0x8A, 0x00}, {3, 0x82, 0x00, 'a', 'b'}};
  for (int i = 0; i < 2; ++i) {
    ResultSet set(plan);
    std::vector<uint8_t> bytes = frame(canonical[i]);
    size_t pos = 0;
    ASSERT_TRUE(Decode(&set, bytes.data(), bytes.size(), &pos));
    EXPECT_EQ(set.size(), 1u);
    ResultSet refused(plan);
    bytes = frame(overlong[i]);
    pos = 0;
    EXPECT_FALSE(Decode(&refused, bytes.data(), bytes.size(), &pos));
  }
}

// A Decode that fails leaves the set as it was, however late its bad row
// comes: every row is checked before any merges. Each payload updates group
// "a", adds group "c", then ends in a bad row.
TEST(ResultSetTest, FailedDecodeLeavesTheSetUnchanged) {
  ResultPlan plan;
  plan.group_fields = {"g"};
  plan.aggs = {{AggFn::kCount, "", "COUNT", false}, {AggFn::kSum, "v", "SUM", false}};
  ResultSet set(plan);
  set.AddInput(Row("a", 1));
  set.AddInput(Row("b", 2));
  const std::vector<std::string> names = set.ColumnNames();
  const std::vector<std::string> rendered = Rendered(set.Finalize());
  std::vector<uint8_t> encoded;
  set.Encode(&encoded);

  std::vector<uint8_t> good_rows;
  for (const Value& v : {Value("a"), Value(int64_t{3}), Value(int64_t{5}), Value("c"),
                         Value(int64_t{1}), Value(int64_t{1})}) {
    PutValue(&good_rows, v);
  }
  struct Case {
    const char* fault;
    std::vector<uint8_t> last_row;
  };
  const Case cases[] = {
      {"overlong key varint", {3, 0x81, 0x00, 'd', 1, 2, 1, 2}},
      {"non-int COUNT", {3, 1, 'd', 3, 1, '1', 1, 2}},
      {"truncated payload", {3, 1, 'd', 1, 2, 1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.fault);
    std::vector<uint8_t> payload = good_rows;
    payload.insert(payload.end(), c.last_row.begin(), c.last_row.end());
    EXPECT_FALSE(set.DecodeNamed(names, SetFrame{3, false, 7, payload.data(), payload.size()}));
    EXPECT_EQ(Rendered(set.Finalize()), rendered);
    std::vector<uint8_t> again;
    set.Encode(&again);
    EXPECT_EQ(again, encoded);  // No group, count or drop was added.
  }
  // The same rows with a good last row merge.
  std::vector<uint8_t> payload = good_rows;
  payload.insert(payload.end(), {3, 1, 'd', 1, 2, 1, 2});
  ASSERT_TRUE(set.DecodeNamed(names, SetFrame{3, false, 7, payload.data(), payload.size()}));
  EXPECT_EQ(Rendered(set.Finalize()),
            (std::vector<std::string>{"(g=a, COUNT=4, SUM=6)", "(g=b, COUNT=1, SUM=2)",
                                      "(g=c, COUNT=1, SUM=1)", "(g=d, COUNT=1, SUM=1)"}));
  EXPECT_EQ(set.dropped(), 7u);
}

// A typed key rendering that tells every distinct key apart: the type, and a
// double's bits (two NaNs, and -0.0 and 0.0, print alike).
std::string KeyString(const Value& v) {
  std::string out = std::to_string(static_cast<int>(v.type())) + ":";
  if (v.is_double()) {
    uint64_t bits = 0;
    const double d = v.double_value();
    std::memcpy(&bits, &d, sizeof(bits));
    return out + std::to_string(bits);
  }
  return out + v.ToString();
}

// Group equality, spelled out on Values: the same type and the same value,
// doubles bitwise.
bool SameKeyValue(const Value& a, const Value& b) { return KeyString(a) == KeyString(b); }

// Keys of every type and their edges: null; ints at the varint length steps,
// negative, and INT64_MIN/MAX; doubles including -0.0, 0.0 and two NaN bit
// patterns; strings including empty and 1 kB ones differing in the last byte.
Value EdgeKey(Rng* rng) {
  static const std::vector<Value> kKeys = [] {
    std::vector<Value> keys = {Value(), Value(int64_t{0}), Value(int64_t{1}), Value(int64_t{-1}),
                               Value(int64_t{63}), Value(int64_t{64}), Value(int64_t{-64}),
                               Value(int64_t{-65}), Value(INT64_MIN), Value(INT64_MAX),
                               Value(0.0), Value(-0.0), Value(1.0), Value(""), Value("1"),
                               Value(std::string(1024, 'k')), Value(std::string(1023, 'k') + "l")};
    for (uint64_t bits : {0x7FF8000000000000ULL, 0x7FF8000000000001ULL}) {
      double nan = 0;
      std::memcpy(&nan, &bits, sizeof(nan));
      keys.emplace_back(nan);
    }
    return keys;
  }();
  if (rng->NextBool(0.2)) {
    return Value(rng->NextInt(INT64_MIN / 2, INT64_MAX / 2));
  }
  return kKeys[rng->NextBelow(kKeys.size())];
}

// Property: keys kept as their wire bytes group exactly as typed Values do.
// Random two-column keys of every type go through AddInput on split sets,
// Absorb by move and by copy, and an EncodeNamed/DecodeNamed round trip
// (into an empty set and into a populated one); the total equals a
// Value-keyed reference, COUNT and SUM per key.
TEST(ResultSetTest, ByteKeysGroupAsTypedValues) {
  Rng rng(1701);
  ResultPlan plan;
  plan.group_fields = {"g", "h"};
  plan.aggs = {{AggFn::kCount, "", "COUNT", false}, {AggFn::kSum, "v", "SUM", false}};
  for (int trial = 0; trial < 40; ++trial) {
    struct RefGroup {
      Value g;
      Value h;
      int64_t count = 0;
      int64_t sum = 0;
    };
    std::vector<RefGroup> reference;
    std::vector<ResultSet> parts(4, ResultSet(plan));
    const int n = static_cast<int>(rng.NextBelow(200));
    for (int i = 0; i < n; ++i) {
      Value g = EdgeKey(&rng);
      Value h = EdgeKey(&rng);
      const int64_t v = rng.NextInt(-9, 9);
      Tuple t;
      if (!g.is_null() || rng.NextBool()) {  // A null key is absent or null.
        t.Append("g", g);
      }
      t.Append("h", h);
      t.Append("v", Value(v));
      parts[rng.NextBelow(parts.size())].AddInput(t);
      auto it = std::find_if(reference.begin(), reference.end(), [&](const RefGroup& r) {
        return SameKeyValue(r.g, g) && SameKeyValue(r.h, h);
      });
      if (it == reference.end()) {
        it = reference.insert(reference.end(), RefGroup{g, h});
      }
      ++it->count;
      it->sum += v;
    }
    ResultSet total(plan);
    total.Absorb(std::move(parts[0]));
    total.Absorb(parts[1]);
    // Part 2 decodes straight into the populated total; part 3 into an
    // empty set, which the total then absorbs.
    for (size_t p = 2; p < parts.size(); ++p) {
      std::vector<uint8_t> bytes;
      parts[p].EncodeNamed(&bytes);
      ResultSet decoded = parts[p].EmptyLike();
      ASSERT_TRUE((p == 2 ? total : decoded).DecodeSlices(bytes));
      total.Absorb(std::move(decoded));
    }
    std::vector<std::string> want;
    for (const RefGroup& r : reference) {
      want.push_back(KeyString(r.g) + " " + KeyString(r.h) + " " + std::to_string(r.count) +
                     " " + std::to_string(r.sum));
    }
    std::vector<std::string> got;
    for (const Tuple& t : total.Finalize()) {
      got.push_back(KeyString(t.Get("g")) + " " + KeyString(t.Get("h")) + " " +
                    std::to_string(t.Get("COUNT").int_value()) + " " +
                    std::to_string(t.Get("SUM").int_value()));
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "trial=" << trial;
  }
}

// Keys that stress the index: strings sharing a 100-byte prefix, the int,
// double and string spellings of one number, and missing (null) keys.
Value StressKey(Rng* rng) {
  const int64_t k = static_cast<int64_t>(rng->NextBelow(40));
  switch (rng->NextBelow(5)) {
    case 0:
      return Value(std::string(100, 'x') + std::to_string(k));
    case 1:
      return Value(k);
    case 2:
      return Value(static_cast<double>(k));
    case 3:
      return Value(std::to_string(k));
    default:
      return Value();
  }
}

// A group key rendered with its value types: int 1 and string "1" print
// alike but are different groups.
std::string TypedKey(const Tuple& t) {
  std::string out;
  for (const char* field : {"g", "h"}) {
    Value v = t.Get(field);
    out += std::to_string(static_cast<int>(v.type())) + ":" + v.ToString() + " ";
  }
  return out;
}

// Property: the combine tree's set-to-set merges — Absorb by move and by
// copy, and a wire round trip — equal one direct Aggregator, for every
// function, raw or pushed-down (from_state) input, over keys that stress the
// hashed index; and a merged set lists groups in first-absorbed order
// across index growth.
TEST_P(CombinePropertyTest, SetToSetAbsorbEqualsDirect) {
  const AggFn fn = GetParam();
  Rng rng(static_cast<uint64_t>(fn) * 104729 + 7);
  for (bool from_state : {false, true}) {
    ResultPlan plan;
    plan.group_fields = {"g", "h"};
    plan.aggs = {{fn, fn == AggFn::kCount && !from_state ? "" : "v", "out", from_state}};
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<Tuple> rows;
      const int n = static_cast<int>(rng.NextBelow(300));
      for (int i = 0; i < n; ++i) {
        Tuple t;
        Value g = StressKey(&rng);
        if (!g.is_null()) {
          t.Append("g", g);
        }
        t.Append("h", Value(static_cast<int64_t>(rng.NextBelow(2))));
        if (rng.NextBelow(8) != 0) {  // Some rows carry no input value.
          t.Append("v", Value(rng.NextInt(-50, 50)));
          t.Append("v#n", Value(static_cast<int64_t>(1 + rng.NextBelow(3))));
        }
        rows.push_back(std::move(t));
      }
      Aggregator direct(plan.group_fields, plan.aggs);
      std::vector<ResultSet> parts(6, ResultSet(plan));
      for (const Tuple& r : rows) {
        direct.AddInput(r);
        parts[rng.NextBelow(parts.size())].AddInput(r);
      }
      // First-absorbed group order, from each part's own order.
      std::vector<std::string> first_seen;
      for (const ResultSet& part : parts) {
        for (const Tuple& t : part.Finalize()) {
          std::string key = TypedKey(t);
          if (std::find(first_seen.begin(), first_seen.end(), key) == first_seen.end()) {
            first_seen.push_back(key);
          }
        }
      }
      // Parts 0-1 move into a middle level, 2-3 copy into it, 4-5 cross the
      // wire; the total then absorbs the middle level by copy.
      ResultSet middle(plan);
      ResultSet total(plan);
      for (size_t p = 0; p < parts.size(); ++p) {
        if (p < 2) {
          middle.Absorb(std::move(parts[p]));
          EXPECT_TRUE(parts[p].empty());
        } else if (p < 4) {
          middle.Absorb(parts[p]);
        } else {
          std::vector<uint8_t> bytes;
          parts[p].Encode(&bytes);
          ResultSet decoded = parts[p].EmptyLike();
          size_t pos = 0;
          ASSERT_TRUE(Decode(&decoded, bytes.data(), bytes.size(), &pos));
          middle.Absorb(std::move(decoded));
        }
      }
      total.Absorb(middle);
      const std::string label = std::string("fn=") + AggFnName(fn) +
                                " from_state=" + (from_state ? "1" : "0") +
                                " trial=" + std::to_string(trial);
      EXPECT_EQ(CanonicalRows(total.Finalize()), CanonicalRows(direct.Finalize())) << label;
      std::vector<std::string> order;
      for (const Tuple& t : total.Finalize()) {
        order.push_back(TypedKey(t));
      }
      EXPECT_EQ(order, first_seen) << label;
    }
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
