#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rand.h"
#include "src/core/advice_io.h"
#include "src/core/baggage.h"
#include "src/core/wire.h"
#include "src/telemetry/metrics.h"
#include "tests/test_util.h"

namespace pivot {
namespace {

Tuple T(const std::string& name, int64_t v) { return Tuple{{name, Value(v)}}; }

std::vector<std::string> Canonical(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  out.reserve(tuples.size());
  for (const auto& t : tuples) {
    out.push_back(t.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// ResultSet semantics

TEST(TupleBagTest, AllKeepsEverything) {
  ResultSet bag(BagSpec::All());
  for (int64_t i = 0; i < 5; ++i) {
    bag.AddInput(T("x", i));
  }
  EXPECT_EQ(bag.size(), 5u);
}

TEST(TupleBagTest, FirstKeepsFirst) {
  ResultSet bag(BagSpec::First(1));
  bag.AddInput(T("x", 1));
  bag.AddInput(T("x", 2));
  auto contents = bag.StateRows();
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents[0].Get("x").int_value(), 1);
}

TEST(TupleBagTest, FirstNKeepsFirstN) {
  ResultSet bag(BagSpec::First(2));
  for (int64_t i = 1; i <= 4; ++i) {
    bag.AddInput(T("x", i));
  }
  auto contents = bag.StateRows();
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0].Get("x").int_value(), 1);
  EXPECT_EQ(contents[1].Get("x").int_value(), 2);
}

TEST(TupleBagTest, RecentKeepsMostRecent) {
  ResultSet bag(BagSpec::Recent(1));
  bag.AddInput(T("x", 1));
  bag.AddInput(T("x", 2));
  auto contents = bag.StateRows();
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents[0].Get("x").int_value(), 2);
}

TEST(TupleBagTest, RecentNKeepsLastNInOrder) {
  ResultSet bag(BagSpec::Recent(2));
  for (int64_t i = 1; i <= 4; ++i) {
    bag.AddInput(T("x", i));
  }
  auto contents = bag.StateRows();
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0].Get("x").int_value(), 3);
  EXPECT_EQ(contents[1].Get("x").int_value(), 4);
}

TEST(TupleBagTest, AggregateBagAccumulates) {
  ResultSet bag(BagSpec::Aggregated({}, {{AggFn::kSum, "x", "SUM(x)", false}}));
  bag.AddInput(T("x", 3));
  bag.AddInput(T("x", 4));
  auto contents = bag.StateRows();
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents[0].Get("SUM(x)").int_value(), 7);
}

TEST(TupleBagTest, MergeFirstPrefersThis) {
  ResultSet a(BagSpec::First(1));
  ResultSet b(BagSpec::First(1));
  a.AddInput(T("x", 1));
  b.AddInput(T("x", 2));
  a.Absorb(b);
  EXPECT_EQ(a.StateRows()[0].Get("x").int_value(), 1);
}

TEST(TupleBagTest, MergeRecentPrefersOther) {
  ResultSet a(BagSpec::Recent(1));
  ResultSet b(BagSpec::Recent(1));
  a.AddInput(T("x", 1));
  b.AddInput(T("x", 2));
  a.Absorb(b);
  EXPECT_EQ(a.StateRows()[0].Get("x").int_value(), 2);
}

TEST(TupleBagTest, MergeAggregateCombines) {
  BagSpec spec = BagSpec::Aggregated({}, {{AggFn::kCount, "", "COUNT", false}});
  ResultSet a(spec);
  ResultSet b(spec);
  a.AddInput(T("x", 1));
  b.AddInput(T("x", 2));
  b.AddInput(T("x", 3));
  a.Absorb(b);
  EXPECT_EQ(a.StateRows()[0].Get("COUNT").int_value(), 3);
}

// ---------------------------------------------------------------------------
// Baggage pack / unpack

TEST(BaggageTest, PackUnpack) {
  Baggage bag;
  bag.Pack(1, BagSpec::All(), T("x", 1));
  bag.Pack(1, BagSpec::All(), T("x", 2));
  auto tuples = UnpackCopy(bag, 1);
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_TRUE(UnpackCopy(bag, 999).empty());
}

TEST(BaggageTest, DistinctBagsAreIsolated) {
  Baggage bag;
  bag.Pack(1, BagSpec::All(), T("x", 1));
  bag.Pack(2, BagSpec::All(), T("y", 9));
  EXPECT_EQ(UnpackCopy(bag, 1).size(), 1u);
  EXPECT_EQ(UnpackCopy(bag, 2).size(), 1u);
  EXPECT_EQ(UnpackCopy(bag, 2)[0].Get("y").int_value(), 9);
}

TEST(BaggageTest, TrivialBaggageSerializesToZeroBytes) {
  // "By default, Pivot Tracing propagates an empty baggage with a serialized
  // size of 0 bytes" (§6.3).
  Baggage bag;
  EXPECT_TRUE(bag.IsTrivial());
  EXPECT_TRUE(bag.Serialize().empty());
}

TEST(BaggageTest, DeserializeEmptyYieldsTrivial) {
  Result<Baggage> bag = Baggage::Deserialize(nullptr, 0);
  ASSERT_TRUE(bag.ok());
  EXPECT_TRUE(bag->IsTrivial());
}

TEST(BaggageTest, SerializeRoundTripPreservesTuples) {
  Baggage bag;
  bag.Pack(7, BagSpec::First(2), Tuple{{"cl.procName", Value("HGET")}});
  bag.Pack(9, BagSpec::Aggregated({"g"}, {{AggFn::kSum, "v", "S", false}}),
           Tuple{{"g", Value("a")}, {"v", Value(int64_t{5})}});
  std::vector<uint8_t> bytes = bag.Serialize();
  ASSERT_FALSE(bytes.empty());

  Result<Baggage> decoded = Baggage::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  // The values travel bare: the receiving steps' schemas read them.
  BagSchemaPtr first = Schema(BagSpec::First(2), {"cl.procName"});
  BagSchemaPtr sum = Schema(BagSpec::Aggregated({"g"}, {{AggFn::kSum, "v", "S", false}}));
  EXPECT_EQ(Canonical(UnpackCopy(*decoded, 7, first)), Canonical(UnpackCopy(bag, 7)));
  EXPECT_EQ(Canonical(UnpackCopy(*decoded, 9, sum)), Canonical(UnpackCopy(bag, 9)));
  // Without a schema an encoded bag reads as empty.
  EXPECT_TRUE(UnpackCopy(*decoded, 7).empty());
  // Re-serialization is stable.
  EXPECT_EQ(decoded->Serialize(), bytes);
}

TEST(BaggageTest, SerializedSizeGrowsLinearlyInTuples) {
  // Fig 10's premise: size is approximately linear in packed tuple count.
  auto size_with = [](int n) {
    Baggage bag;
    for (int i = 0; i < n; ++i) {
      bag.Pack(1, BagSpec::All(), T("x", i));
    }
    return bag.Serialize().size();
  };
  size_t s10 = size_with(10);
  size_t s20 = size_with(20);
  size_t s40 = size_with(40);
  EXPECT_NEAR(static_cast<double>(s40 - s20), static_cast<double>(s20 - s10) * 2.0,
              static_cast<double>(s10));
}

TEST(BaggageTest, DeserializeRejectsTrailingBytes) {
  Baggage bag;
  bag.Pack(1, BagSpec::All(), T("x", 1));
  std::vector<uint8_t> bytes = bag.Serialize();
  bytes.push_back(0xFF);
  EXPECT_FALSE(Baggage::Deserialize(bytes).ok());
}

// Schemas a hostile peer's bags meet at Unpack: a retention bag of two
// columns and an aggregate bag of three state columns.
BagSchemaPtr HostileRetentionSchema() {
  return Schema(BagSpec::Recent(4), {"hostile.a", "hostile.b"});
}
BagSchemaPtr HostileAggregateSchema() {
  return Schema(
      BagSpec::Aggregated({"hostile.g"}, {{AggFn::kAverage, "hostile.v", "hostile.avg", false}}));
}

TEST(BaggageTest, DeserializeFuzzDoesNotCrash) {
  telemetry::Counter& errors = telemetry::Metrics().GetCounter("baggage.deserialize.errors");
  const BagSchemaPtr schemas[] = {HostileRetentionSchema(), HostileAggregateSchema()};
  const size_t symbols = SymbolTable::Global().size();
  Rng rng(404);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> junk(rng.NextBelow(64));
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    // Must either fail cleanly or produce a usable baggage; never crash. A
    // failed decode counts once; a decoded one's bags are read under each
    // schema, and each instance's bag that does not fit counts at most once.
    const uint64_t before = errors.value();
    Result<Baggage> result = Baggage::Deserialize(junk);
    if (!result.ok()) {
      EXPECT_EQ(errors.value(), before + 1);
      continue;
    }
    result->TupleCount();
    result->DroppedTupleCount();
    if (!result->IsTrivial()) {
      EXPECT_EQ(result->Serialize(), junk);  // Forwarded untouched.
    }
    for (BagKey key = 0; key < 4; ++key) {
      const uint64_t unpack_before = errors.value();
      UnpackCopy(*result, key, schemas[key % 2]);
      EXPECT_LE(errors.value() - unpack_before, result->instance_count());
    }
  }
  EXPECT_EQ(SymbolTable::Global().size(), symbols);
}

// One-instance baggage bytes holding the given bags, each
// (key, rows << 1 | valve, dropped, payload), framed by hand so that counts
// can disagree with the values.
struct WireBag {
  BagKey key;
  uint64_t rows;
  uint64_t dropped;
  std::vector<uint8_t> payload;
};
std::vector<uint8_t> HandFramed(const std::vector<WireBag>& bags) {
  std::vector<uint8_t> out;
  PutVarint64(&out, 1);  // Instances.
  PutVarint64(&out, 0);  // Generation.
  ItcId::Seed().Encode(&out);
  PutVarint64(&out, bags.size());
  for (const WireBag& bag : bags) {
    PutVarint64(&out, bag.key);
    PutVarint64(&out, bag.rows << 1);
    PutVarint64(&out, bag.dropped);
    PutVarint64(&out, bag.payload.size());
    out.insert(out.end(), bag.payload.begin(), bag.payload.end());
  }
  return out;
}

// A random value: null, int, double or a string of up to 40 random bytes,
// the bare values a peer's bag carries in place of names.
Value RandomValue(Rng* rng) {
  switch (rng->NextBelow(4)) {
    case 0:
      return Value();
    case 1:
      return Value(static_cast<int64_t>(rng->NextUint64()));
    case 2:
      return Value(static_cast<double>(rng->NextInt(-1000, 1000)) / 7.0);
    default: {
      std::string s(rng->NextBelow(41), ' ');
      for (char& c : s) {
        c = static_cast<char>(rng->NextBelow(256));
      }
      return Value(s);
    }
  }
}

// Decode now happens at Unpack, so a peer's values meet a schema only there.
// Over 10k hostile bags — random bytes, truncated baggage, bags whose row
// count disagrees with their values, and bags under keys no schema names —
// nothing crashes, nothing is interned, every bad payload counts exactly
// once in baggage.deserialize.errors, and a bad bag reads as empty.
TEST(BaggageTest, HostileBagsGrowNothing) {
  telemetry::Counter& errors = telemetry::Metrics().GetCounter("baggage.deserialize.errors");
  const BagSchemaPtr schemas[] = {HostileRetentionSchema(), HostileAggregateSchema()};
  constexpr BagKey kKey = 5;
  const size_t symbols = SymbolTable::Global().size();
  const uint64_t errors_at_start = errors.value();
  uint64_t expected_errors = 0;
  Rng rng(2718);
  for (int trial = 0; trial < 10000; ++trial) {
    SCOPED_TRACE(trial);
    const BagSchema& schema = *schemas[trial % 2];
    const size_t columns = schema.empty.aggregated() ? 3 : schema.columns.size();
    // A well-formed payload of `rows` rows for this schema. Aggregate state
    // needs an int (or null) count in its Average's count column.
    const uint64_t rows = rng.NextBelow(6);
    std::vector<uint8_t> payload;
    for (uint64_t r = 0; r < rows * columns; ++r) {
      PutValue(&payload, schema.empty.aggregated() && r % columns == columns - 1
                             ? Value(rng.NextInt(0, 9))
                             : RandomValue(&rng));
    }
    const uint64_t before = errors.value();
    switch ((trial / 2) % 5) {
      case 0: {  // Random bytes.
        std::vector<uint8_t> junk(rng.NextBelow(64));
        for (auto& b : junk) {
          b = static_cast<uint8_t>(rng.NextBelow(256));
        }
        Result<Baggage> decoded = Baggage::Deserialize(junk);
        if (decoded.ok()) {
          UnpackCopy(*decoded, kKey, schemas[trial % 2]);
          EXPECT_LE(errors.value() - before, decoded->instance_count());
          expected_errors += errors.value() - before;
        } else {
          EXPECT_EQ(errors.value(), before + 1);
          ++expected_errors;
        }
        break;
      }
      case 1: {  // Truncated: every cut of framed bytes fails to deserialize.
        const std::vector<uint8_t> wire = HandFramed({{kKey, rows, 0, payload}});
        const size_t cut = 1 + rng.NextBelow(wire.size() - 1);
        EXPECT_FALSE(Baggage::Deserialize(wire.data(), cut).ok());
        EXPECT_EQ(errors.value(), before + 1);
        ++expected_errors;
        break;
      }
      case 2: {  // Miscounted: the framing parses, the values do not fit.
        const uint64_t claimed = rows + 1 + rng.NextBelow(3);
        const uint64_t miscount = rows > 0 && rng.NextBool(0.5) ? rows - 1 : claimed;
        Result<Baggage> decoded = Baggage::Deserialize(HandFramed({{kKey, miscount, 0, payload}}));
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(errors.value(), before);
        EXPECT_TRUE(UnpackCopy(*decoded, kKey, schemas[trial % 2]).empty());
        EXPECT_EQ(errors.value(), before + 1);
        ++expected_errors;
        break;
      }
      case 3: {  // Unknown key: forwarded untouched, never read.
        std::vector<uint8_t> garbage(rng.NextBelow(32));
        for (auto& b : garbage) {
          b = static_cast<uint8_t>(rng.NextBelow(256));
        }
        const std::vector<uint8_t> wire =
            HandFramed({{kKey + 1 + rng.NextBelow(1000), 1 + rng.NextBelow(1 << 20), 0, garbage}});
        Result<Baggage> decoded = Baggage::Deserialize(wire);
        ASSERT_TRUE(decoded.ok());
        EXPECT_TRUE(UnpackCopy(*decoded, kKey, schemas[trial % 2]).empty());
        EXPECT_EQ(decoded->Serialize(), wire);
        EXPECT_EQ(errors.value(), before);
        break;
      }
      default: {  // Well formed: reads every row, counts nothing.
        Result<Baggage> decoded = Baggage::Deserialize(HandFramed({{kKey, rows, 0, payload}}));
        ASSERT_TRUE(decoded.ok());
        const std::vector<Tuple> read = UnpackCopy(*decoded, kKey, schemas[trial % 2]);
        EXPECT_EQ(errors.value(), before);
        if (!schema.empty.aggregated()) {
          EXPECT_EQ(read.size(), std::min<uint64_t>(rows, 4));  // Recent(4).
        }
        break;
      }
    }
  }
  EXPECT_EQ(errors.value() - errors_at_start, expected_errors);
  EXPECT_EQ(SymbolTable::Global().size(), symbols);
}

TEST(BaggageTest, TruncatedRealBaggageFailsCleanly) {
  Baggage bag;
  bag.Pack(1, BagSpec::All(), Tuple{{"name", Value("some-string-payload")}});
  std::vector<uint8_t> bytes = bag.Serialize();
  for (size_t cut = 1; cut < bytes.size(); ++cut) {
    Result<Baggage> result = Baggage::Deserialize(bytes.data(), cut);
    EXPECT_FALSE(result.ok()) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Branching (§5)

TEST(BaggageTest, SplitIsolatesBranches) {
  // "Tuples packed by one branch cannot be visible to any other branch until
  // the branches rejoin."
  Baggage parent;
  parent.Pack(1, BagSpec::All(), T("x", 1));
  auto [left, right] = parent.Split();

  left.Pack(1, BagSpec::All(), T("x", 100));
  right.Pack(1, BagSpec::All(), T("x", 200));

  // Both branches see the pre-split tuple plus their own only.
  EXPECT_EQ(Canonical(UnpackCopy(left, 1)), (std::vector<std::string>{"(x=1)", "(x=100)"}));
  EXPECT_EQ(Canonical(UnpackCopy(right, 1)), (std::vector<std::string>{"(x=1)", "(x=200)"}));
}

TEST(BaggageTest, JoinMergesBranchesAndDeduplicatesHistory) {
  Baggage parent;
  parent.Pack(1, BagSpec::All(), T("x", 1));
  auto [left, right] = parent.Split();
  left.Pack(1, BagSpec::All(), T("x", 100));
  right.Pack(1, BagSpec::All(), T("x", 200));

  Baggage joined = Baggage::Join(left, right);
  // The pre-split tuple appears once (duplicate inactive instances dropped).
  EXPECT_EQ(Canonical(UnpackCopy(joined, 1)),
            (std::vector<std::string>{"(x=1)", "(x=100)", "(x=200)"}));
  // ID recovered: split then join restores the seed interval.
  EXPECT_EQ(joined.active_id(), ItcId::Seed());
}

TEST(BaggageTest, NestedSplitJoin) {
  Baggage root;
  auto [a, bc] = root.Split();
  auto [b, c] = bc.Split();
  a.Pack(1, BagSpec::All(), T("x", 1));
  b.Pack(1, BagSpec::All(), T("x", 2));
  c.Pack(1, BagSpec::All(), T("x", 3));
  Baggage joined = Baggage::Join(a, Baggage::Join(b, c));
  EXPECT_EQ(Canonical(UnpackCopy(joined, 1)),
            (std::vector<std::string>{"(x=1)", "(x=2)", "(x=3)"}));
  EXPECT_EQ(joined.active_id(), ItcId::Seed());
}

TEST(BaggageTest, SplitBranchesHaveDisjointIds) {
  Baggage root;
  auto [left, right] = root.Split();
  EXPECT_FALSE(ItcId::Overlaps(left.active_id(), right.active_id()));
}

TEST(BaggageTest, SplitSerializesAndSurvivesWire) {
  Baggage root;
  root.Pack(1, BagSpec::First(1), T("x", 7));
  auto [left, right] = root.Split();
  left.Pack(1, BagSpec::First(1), T("x", 8));

  // Ship the left branch across a (simulated) boundary.
  Result<Baggage> shipped = Baggage::Deserialize(left.Serialize());
  ASSERT_TRUE(shipped.ok());
  Baggage joined = Baggage::Join(*shipped, right);
  // FIRST semantics across instances: the pre-split tuple (oldest) wins.
  auto tuples = UnpackCopy(joined, 1, Schema(BagSpec::First(1), {"x"}));
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].Get("x").int_value(), 7);
}

TEST(BaggageTest, FirstSemanticsAcrossSplitPrefersOldest) {
  Baggage root;
  root.Pack(1, BagSpec::First(1), T("x", 1));
  auto [left, right] = root.Split();
  left.Pack(1, BagSpec::First(1), T("x", 2));
  auto tuples = UnpackCopy(left, 1);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].Get("x").int_value(), 1);
}

TEST(BaggageTest, RecentSemanticsAcrossSplitPrefersNewest) {
  Baggage root;
  root.Pack(1, BagSpec::Recent(1), T("x", 1));
  auto [left, right] = root.Split();
  left.Pack(1, BagSpec::Recent(1), T("x", 2));
  auto tuples = UnpackCopy(left, 1);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].Get("x").int_value(), 2);
}

TEST(BaggageTest, AggregateAcrossSplitCombines) {
  BagSpec spec = BagSpec::Aggregated({}, {{AggFn::kSum, "x", "S", false}});
  Baggage root;
  root.Pack(1, spec, T("x", 1));
  auto [left, right] = root.Split();
  left.Pack(1, spec, T("x", 10));
  right.Pack(1, spec, T("x", 100));
  Baggage joined = Baggage::Join(left, right);
  auto tuples = UnpackCopy(joined, 1);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].Get("S").int_value(), 111);
}

// Join of two baggages that arrived encoded concatenates each shared bag's
// values. Read under the bag's schema, that equals joining the decoded
// baggages (ResultSet::Absorb): the same rows in the same order and the same
// drops, under every retention rule and for aggregate state, whichever side
// is decoded, and again one hop later.
TEST(BaggageTest, JoinOfEncodedBagsMatchesJoinOfDecodedOnes) {
  struct Case {
    BagSpec spec;
    int left;
    int right;
  };
  const std::vector<Case> cases = {
      {BagSpec::All(), 3000, 3000},          // Past the valve: 1904 dropped.
      {BagSpec::All(), kMaxBagTuples + 4, 10},  // Left already dropped 4.
      {BagSpec::All(), 5, 7},
      {BagSpec::First(3), 2, 5},
      {BagSpec::First(kMaxBagTuples), 3000, 3000},
      {BagSpec::Recent(3), 5, 2},
      {BagSpec::Recent(3), 1, 1},
      {BagSpec::Aggregated({"j.k"}, {{AggFn::kSum, "j.v", "S", false},
                                     {AggFn::kAverage, "j.v", "A", false}}),
       40, 25},
  };
  constexpr BagKey kKey = 9;
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    const Case& c = cases[i];
    const BagSchemaPtr schema = Schema(c.spec, {"j.k", "j.v"});
    Baggage root;
    root.Pack(kKey, *schema, Tuple{{"j.k", Value(int64_t{-1})}, {"j.v", Value(int64_t{1})}});
    auto [left, right] = root.Split();
    for (int n = 0; n < c.left; ++n) {
      left.Pack(kKey, *schema, Tuple{{"j.k", Value(int64_t{n % 7})}, {"j.v", Value(int64_t{n})}});
    }
    for (int n = 0; n < c.right; ++n) {
      right.Pack(kKey, *schema,
                 Tuple{{"j.k", Value(int64_t{n % 5})}, {"j.v", Value(int64_t{1000 + n})}});
    }
    Result<Baggage> left_in = Baggage::Deserialize(left.Serialize());
    Result<Baggage> right_in = Baggage::Deserialize(right.Serialize());
    ASSERT_TRUE(left_in.ok());
    ASSERT_TRUE(right_in.ok());

    const Baggage decoded = Baggage::Join(left, right);
    const std::vector<Tuple> want = UnpackCopy(decoded, kKey, schema);
    ASSERT_FALSE(want.empty());
    for (const Baggage& joined : {Baggage::Join(*left_in, *right_in), Baggage::Join(left, *right_in),
                                  Baggage::Join(*left_in, right)}) {
      EXPECT_EQ(UnpackCopy(joined, kKey, schema), want);
      EXPECT_EQ(joined.DroppedTupleCount(), decoded.DroppedTupleCount());
      Result<Baggage> next_hop = Baggage::Deserialize(joined.Serialize());
      ASSERT_TRUE(next_hop.ok());
      EXPECT_EQ(UnpackCopy(*next_hop, kKey, schema), want);
      EXPECT_EQ(next_hop->DroppedTupleCount(), decoded.DroppedTupleCount());
    }
  }
}

TEST(BaggageTest, TupleCountAndClear) {
  Baggage bag;
  bag.Pack(1, BagSpec::All(), T("x", 1));
  bag.Pack(2, BagSpec::All(), T("y", 2));
  auto [l, r] = bag.Split();
  l.Pack(1, BagSpec::All(), T("x", 3));
  EXPECT_EQ(l.TupleCount(), 3u);
  l.Clear();
  EXPECT_TRUE(l.IsTrivial());
  EXPECT_EQ(l.TupleCount(), 0u);
}

// The memoized-encoding contract (docs/PERFORMANCE.md): serializing a baggage
// that has not changed since its last Serialize — the response leg of every
// RPC — reuses cached bytes per instance instead of re-encoding, observable
// through the baggage.serialize_cache_hit/miss counters. Each non-trivial
// Serialize counts exactly one hit-or-miss for the active instance plus one
// per inactive instance.
TEST(BaggageCache, SerializeAfterRpcHopReusesCachedBytes) {
  telemetry::Counter& hits =
      telemetry::Metrics().GetCounter("baggage.serialize_cache_hit");
  telemetry::Counter& misses =
      telemetry::Metrics().GetCounter("baggage.serialize_cache_miss");

  // One frozen inactive instance (via Split) + tuples in the active instance.
  Baggage b;
  b.Pack(5, BagSpec::All(), T("a", 1));
  auto [left, right] = b.Split();
  Baggage sender = std::move(left);
  sender.Pack(6, BagSpec::All(), T("b", 2));

  // Request leg: first serialize encodes (misses allowed), and the result is
  // cached per instance.
  std::vector<uint8_t> wire = sender.Serialize();

  // Response leg: nothing changed — every instance must hit its cache.
  uint64_t h0 = hits.value(), m0 = misses.value();
  EXPECT_EQ(sender.Serialize(), wire);
  EXPECT_EQ(hits.value(), h0 + 2);  // active + 1 inactive
  EXPECT_EQ(misses.value(), m0);

  // Receiver side: Deserialize seeds each instance's cache from the wire
  // slice, so the hop's re-serialize is also all hits and byte-identical.
  Result<Baggage> received = Baggage::Deserialize(wire);
  ASSERT_TRUE(received.ok());
  h0 = hits.value();
  m0 = misses.value();
  EXPECT_EQ((*received).Serialize(), wire);
  EXPECT_EQ(hits.value(), h0 + 2);
  EXPECT_EQ(misses.value(), m0);

  // Packing dirties only the active instance: the next serialize re-encodes
  // it (one miss) while frozen instances still serve cached bytes.
  Baggage mutated = std::move(received).value();
  mutated.Pack(7, BagSpec::All(), T("c", 3));
  h0 = hits.value();
  m0 = misses.value();
  std::vector<uint8_t> wire2 = mutated.Serialize();
  EXPECT_NE(wire2, wire);
  EXPECT_EQ(misses.value(), m0 + 1);
  EXPECT_EQ(hits.value(), h0 + 1);
}

// SerializeStats attributes every bag's bytes and tuples to its query, and
// the shares plus framing add up to the serialized size. Attribution must not
// depend on where an instance's bytes came from: a received baggage (bytes
// copied from the wire) reports exactly what the sender reported.
TEST(BaggageTest, SerializeStatsAttributionSurvivesWireRoundTrip) {
  const BagKey q1 = 1 * kBagKeysPerQuery;
  const BagKey q2 = 2 * kBagKeysPerQuery;
  Baggage b;
  b.Pack(q1, BagSpec::All(), T("a", 1));
  b.Pack(q2, BagSpec::First(2), T("b", 2));
  auto [left, right] = b.Split();  // Freezes one instance holding both bags.
  Baggage sender = std::move(left);
  sender.Pack(q1, BagSpec::All(), T("a", 3));
  sender.Pack(q2 + 1, BagSpec::Aggregated({}, {{AggFn::kSum, "c", "SUM(c)", false}}),
              T("c", 4));

  // Framing: the instance count, then each instance's gen, id and bag count
  // (all one-byte varints here).
  auto id_bytes = [](const ItcId& id) {
    std::vector<uint8_t> buf;
    id.Encode(&buf);
    return buf.size();
  };
  const uint64_t framing = 1 + (2 + id_bytes(sender.active_id())) + (2 + id_bytes(b.active_id()));

  Baggage::SerializeStats sent;
  std::vector<uint8_t> wire = sender.Serialize(&sent);
  Result<Baggage> received = Baggage::Deserialize(wire);
  ASSERT_TRUE(received.ok());
  Baggage::SerializeStats resent;
  EXPECT_EQ((*received).Serialize(&resent), wire);

  for (const Baggage::SerializeStats* stats : {&sent, &resent}) {
    EXPECT_EQ(stats->bytes, wire.size());
    EXPECT_EQ(stats->tuples, 4u);
    EXPECT_EQ(stats->instances, 2u);
    ASSERT_EQ(stats->queries.size(), 2u);
    EXPECT_EQ(stats->queries.at(1).tuples, 2u);
    EXPECT_EQ(stats->queries.at(2).tuples, 2u);
    uint64_t shares = 0;
    for (const auto& [query, share] : stats->queries) {
      shares += share.bytes;
    }
    EXPECT_EQ(shares + framing, wire.size());
  }
  EXPECT_EQ(resent.queries.at(1).bytes, sent.queries.at(1).bytes);
  EXPECT_EQ(resent.queries.at(2).bytes, sent.queries.at(2).bytes);
}


// ---------------------------------------------------------------------------
// Pinned wire sizes. These byte counts are what wire_bytes_per_req and Fig 10
// measure; a codec change must keep them unless it means to move them.
//
// Framing of a one-instance baggage is 4 bytes: instance count, gen, the
// seed ITC id and the bag count. A bag with a key below 128, fewer than 64
// rows, a drop count below 128 and under 128 bytes of values adds 4 bytes
// of framing (key, row count and valve flag, dropped, payload length), then
// only its values: no names and no spec travel.

// Serialized size, checked against SerializeStats: the per-query shares plus
// `framing` must add up to it.
size_t PinnedSize(const Baggage& b, uint64_t framing) {
  Baggage::SerializeStats stats;
  std::vector<uint8_t> wire = b.Serialize(&stats);
  uint64_t shares = 0;
  for (const auto& [query, share] : stats.queries) {
    shares += share.bytes;
  }
  EXPECT_EQ(stats.bytes, wire.size());
  EXPECT_EQ(shares + framing, wire.size());
  Result<Baggage> decoded = Baggage::Deserialize(wire);
  EXPECT_TRUE(decoded.ok());
  if (decoded.ok()) {
    EXPECT_EQ(decoded->Serialize(), wire);
  }
  return wire.size();
}

TEST(BaggageTest, OneTupleBagSizesArePinned) {
  // Value "xy": 4 bytes (tag, length, 2 chars). A second value "z": 3 bytes.
  const Tuple one{{"a", Value("xy")}};
  const Tuple two{{"a", Value("xy")}, {"bb", Value("z")}};
  for (const BagSpec& spec : {BagSpec::All(), BagSpec::First(1), BagSpec::Recent(1)}) {
    Baggage b1;
    b1.Pack(1, spec, one);
    EXPECT_EQ(PinnedSize(b1, 4), 4u + (4 + 4));
    Baggage b2;
    b2.Pack(1, spec, two);
    EXPECT_EQ(PinnedSize(b2, 4), 4u + (4 + 4 + 3));
  }
}

TEST(BaggageTest, OneGroupAggregateBagSizeIsPinned) {
  // One state row: g = "a" (3 bytes) and S = 5 (2 bytes).
  Baggage b;
  b.Pack(1, BagSpec::Aggregated({"g"}, {{AggFn::kSum, "v", "S", false}}),
         Tuple{{"g", Value("a")}, {"v", Value(int64_t{5})}});
  EXPECT_EQ(PinnedSize(b, 4), 4u + (4 + 3 + 2));
}

TEST(BaggageTest, Q2AndQ7ShapedBaggageSizeIsPinned) {
  // Q2 packs First(cl.procName); Q7 packs st.host into one kAll bag, then
  // (st.host, getloc.replicas) into its second stage. Query ids of 2 and 7
  // make two-byte keys, so each bag's framing is 5 bytes.
  const BagKey q2 = 2 * kBagKeysPerQuery;
  const BagKey q7 = 7 * kBagKeysPerQuery;
  Baggage b;
  b.Pack(q2, BagSpec::First(), Tuple{{"cl.procName", Value("DFSClient")}});
  b.Pack(q7, BagSpec::All(), Tuple{{"st.host", Value("host-3")}});
  b.Pack(q7 + 1, BagSpec::All(),
         Tuple{{"st.host", Value("host-3")}, {"getloc.replicas", Value(int64_t{3})}});
  // Values: "DFSClient" 11, "host-3" 8, 3 is 2.
  const size_t q2_bag = 5 + 11;
  const size_t q7_bag0 = 5 + 8;
  const size_t q7_bag1 = 5 + 8 + 2;
  EXPECT_EQ(PinnedSize(b, 4), 4 + q2_bag + q7_bag0 + q7_bag1);
}

TEST(BaggageTest, MultiTupleBagWritesNamesOnce) {
  // No names travel at all: every tuple after the first costs only its
  // values (4 + 3 bytes).
  const Tuple t{{"a", Value("xy")}, {"bb", Value("z")}};
  Baggage one;
  Baggage five;
  one.Pack(1, BagSpec::All(), t);
  for (int i = 0; i < 5; ++i) {
    five.Pack(1, BagSpec::All(), t);
  }
  EXPECT_EQ(five.Serialize().size(), one.Serialize().size() + 4 * (4 + 3));
  Result<Baggage> decoded = Baggage::Deserialize(five.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(UnpackCopy(*decoded, 1, Schema(BagSpec::All(), {"a", "bb"})), UnpackCopy(five, 1));
}

TEST(BaggageTest, AggregateBagDecodeInternsNothing) {
  telemetry::Counter& errors = telemetry::Metrics().GetCounter("baggage.deserialize.errors");
  const BagSpec spec =
      BagSpec::Aggregated({"bagtest.g"}, {{AggFn::kSum, "bagtest.v", "bagtest.sum", false}});
  const BagSchemaPtr schema = Schema(spec);
  Baggage b;
  b.Pack(1, spec, Tuple{{"bagtest.g", Value("a")}, {"bagtest.v", Value(int64_t{5})}});
  const std::vector<uint8_t> wire = b.Serialize();
  const size_t symbols = SymbolTable::Global().size();
  const uint64_t errors_before = errors.value();
  for (int i = 0; i < 3; ++i) {
    Result<Baggage> decoded = Baggage::Deserialize(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(UnpackCopy(*decoded, 1, schema), UnpackCopy(b, 1));
  }
  EXPECT_EQ(SymbolTable::Global().size(), symbols);
  EXPECT_EQ(errors.value(), errors_before);

  // The same values read under a schema of another width (a third state
  // column) do not fit it: the bag reads as empty, is counted once, and
  // nothing reaches the symbol table.
  const BagSchemaPtr wider = Schema(BagSpec::Aggregated(
      {"bagtest.g"}, {{AggFn::kAverage, "bagtest.v", "bagtest.avg", false}}));
  const size_t symbols_with_wider = SymbolTable::Global().size();
  Result<Baggage> decoded = Baggage::Deserialize(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(UnpackCopy(*decoded, 1, wider).empty());
  EXPECT_EQ(errors.value(), errors_before + 1);
  EXPECT_EQ(SymbolTable::Global().size(), symbols_with_wider);
}

// An aggregated bag whose group key is spelled with an overlong varint (an
// int, or a string's length) does not fit its schema, since one key could
// otherwise split into two groups: it reads as empty and counts once.
TEST(BaggageTest, DecodeRejectsOverlongKeyVarint) {
  telemetry::Counter& errors = telemetry::Metrics().GetCounter("baggage.deserialize.errors");
  const BagSchemaPtr schema =
      Schema(BagSpec::Aggregated({"bagtest.g"}, {{AggFn::kCount, "", "bagtest.c", false}}));
  const std::vector<uint8_t> canonical[] = {{1, 10}, {3, 2, 'a', 'b'}};  // 5, "ab".
  const std::vector<uint8_t> overlong[] = {{1, 0x8A, 0x00}, {3, 0x82, 0x00, 'a', 'b'}};
  for (int i = 0; i < 2; ++i) {
    for (bool bad : {false, true}) {
      SCOPED_TRACE(std::to_string(i) + (bad ? " overlong" : " canonical"));
      std::vector<uint8_t> payload = bad ? overlong[i] : canonical[i];
      payload.insert(payload.end(), {1, 2});  // The count: int 1.
      Result<Baggage> decoded = Baggage::Deserialize(HandFramed({{1, 1, 0, payload}}));
      ASSERT_TRUE(decoded.ok());
      const uint64_t before = errors.value();
      EXPECT_EQ(UnpackCopy(*decoded, 1, schema).size(), bad ? 0u : 1u);
      EXPECT_EQ(errors.value() - before, bad ? 1u : 0u);
    }
  }
}

// A bag spec's semantics and plan must agree: kAggregate needs a plan, and a
// retention semantics has none. The compiler never emits either mismatch, so
// a weave command's Pack op carrying one is rejected.
TEST(BaggageTest, BagSpecWhoseSemanticsAndPlanDisagreeIsRejected) {
  const ResultPlan sum_by_g{{"g"}, {{AggFn::kSum, "v", "S", false}}};
  for (const BagSpec& spec : {BagSpec{PackSemantics::kAggregate, 0, {}},
                              BagSpec{PackSemantics::kAll, 0, sum_by_g},
                              BagSpec{PackSemantics::kFirstN, 1, ResultPlan{{"g"}, {}}}}) {
    std::vector<uint8_t> bytes;
    PutBagSpec(&bytes, spec);
    size_t pos = 0;
    BagSpec decoded;
    EXPECT_FALSE(GetBagSpec(bytes.data(), bytes.size(), &pos, &decoded));
  }

  // No spec travels in baggage, so the analogous mismatch there is a bag
  // read under the other kind of schema: a First bag's values under the
  // aggregate schema, and the aggregate bag's state under the First schema.
  // Neither fits; each reads as empty and counts once.
  telemetry::Counter& errors = telemetry::Metrics().GetCounter("baggage.deserialize.errors");
  Baggage first;
  first.Pack(1, BagSpec::First(1), T("x", 1));
  Baggage aggregate;
  aggregate.Pack(1, BagSpec::Aggregated(sum_by_g.group_fields, sum_by_g.aggs),
                 Tuple{{"g", Value("a")}, {"v", Value(int64_t{5})}});
  Result<Baggage> first_received = Baggage::Deserialize(first.Serialize());
  Result<Baggage> aggregate_received = Baggage::Deserialize(aggregate.Serialize());
  ASSERT_TRUE(first_received.ok());
  ASSERT_TRUE(aggregate_received.ok());
  const uint64_t errors_before = errors.value();
  EXPECT_TRUE(UnpackCopy(*first_received, 1,
                         Schema(BagSpec::Aggregated(sum_by_g.group_fields, sum_by_g.aggs)))
                  .empty());
  EXPECT_TRUE(UnpackCopy(*aggregate_received, 1, Schema(BagSpec::First(1), {"x"})).empty());
  EXPECT_EQ(errors.value(), errors_before + 2);
}

// The encoder writes each bag key of an instance once; a peer's instance
// that repeats one is malformed.
TEST(BaggageTest, RepeatedBagKeyIsRejected) {
  telemetry::Counter& errors = telemetry::Metrics().GetCounter("baggage.deserialize.errors");
  Baggage b;
  b.Pack(1, BagSpec::First(1), T("x", 1));
  const std::vector<uint8_t> wire = b.Serialize();
  constexpr size_t kBagCountByte = 3;  // [instance count][gen][seed id][bag count]
  ASSERT_EQ(wire[kBagCountByte], 1);
  std::vector<uint8_t> repeated(wire.begin(), wire.end());
  repeated[kBagCountByte] = 2;
  repeated.insert(repeated.end(), wire.begin() + kBagCountByte + 1, wire.end());
  const uint64_t errors_before = errors.value();
  EXPECT_FALSE(Baggage::Deserialize(repeated).ok());
  EXPECT_EQ(errors.value(), errors_before + 1);
}

}  // namespace
}  // namespace pivot
