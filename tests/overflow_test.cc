// Tests for the §4 propagation-overhead guard (kMaxBagTuples) and the
// Table 4 static split/join API.

#include <gtest/gtest.h>

#include "src/core/advice_io.h"
#include "src/core/baggage.h"
#include "src/core/context.h"
#include "tests/test_util.h"

namespace pivot {
namespace {

Tuple T(int64_t v) { return Tuple{{"x", Value(v)}}; }

TEST(BagOverflowTest, UnboundedBagCapsAndCounts) {
  Baggage baggage;
  for (size_t i = 0; i < kMaxBagTuples + 100; ++i) {
    baggage.Pack(1, BagSpec::All(), T(static_cast<int64_t>(i)));
  }
  EXPECT_EQ(baggage.TupleCount(), kMaxBagTuples);
  EXPECT_EQ(baggage.DroppedTupleCount(), 100u);
  EXPECT_EQ(UnpackCopy(baggage, 1).size(), kMaxBagTuples);
}

TEST(BagOverflowTest, BoundedSemanticsNeverDrop) {
  Baggage baggage;
  for (size_t i = 0; i < kMaxBagTuples + 100; ++i) {
    baggage.Pack(1, BagSpec::Recent(4), T(static_cast<int64_t>(i)));
    baggage.Pack(2, BagSpec::Aggregated({}, {{AggFn::kCount, "", "C", false}}),
                 T(static_cast<int64_t>(i)));
  }
  EXPECT_EQ(baggage.DroppedTupleCount(), 0u);
  EXPECT_EQ(UnpackCopy(baggage, 1).size(), 4u);
  EXPECT_EQ(UnpackCopy(baggage, 2)[0].Get("C").int_value(),
            static_cast<int64_t>(kMaxBagTuples + 100));
}

TEST(BagOverflowTest, DroppedCountSurvivesTheWire) {
  Baggage baggage;
  for (size_t i = 0; i < kMaxBagTuples + 7; ++i) {
    baggage.Pack(1, BagSpec::All(), T(static_cast<int64_t>(i)));
  }
  Result<Baggage> decoded = Baggage::Deserialize(baggage.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->DroppedTupleCount(), 7u);
  EXPECT_EQ(decoded->Serialize(), baggage.Serialize());
}

TEST(BagOverflowTest, MergeRespectsCap) {
  ResultSet a(BagSpec::All());
  ResultSet b(BagSpec::All());
  for (size_t i = 0; i < kMaxBagTuples; ++i) {
    a.AddInput(T(1));
    b.AddInput(T(2));
  }
  a.Absorb(b);
  EXPECT_EQ(a.size(), kMaxBagTuples);
  EXPECT_EQ(a.dropped(), kMaxBagTuples);
}

// One retention rule: whatever the semantics, a bag's cap is
// min(limit, kMaxBagTuples), and tuples the valve turns away count as dropped.
TEST(BagOverflowTest, LargeLimitsAreCappedAtTheValve) {
  Baggage baggage;
  for (size_t i = 0; i < kMaxBagTuples + 100; ++i) {
    baggage.Pack(1, BagSpec::Recent(1 << 20), T(static_cast<int64_t>(i)));
    baggage.Pack(2, BagSpec::First(1 << 20), T(static_cast<int64_t>(i)));
  }
  EXPECT_EQ(baggage.TupleCount(), 2 * kMaxBagTuples);
  EXPECT_EQ(baggage.DroppedTupleCount(), 200u);
  std::vector<Tuple> recent = UnpackCopy(baggage, 1);
  ASSERT_EQ(recent.size(), kMaxBagTuples);
  EXPECT_EQ(recent.front().Get("x").int_value(), 100);
  EXPECT_EQ(recent.back().Get("x").int_value(), static_cast<int64_t>(kMaxBagTuples + 99));
  std::vector<Tuple> first = UnpackCopy(baggage, 2);
  ASSERT_EQ(first.size(), kMaxBagTuples);
  EXPECT_EQ(first.back().Get("x").int_value(), static_cast<int64_t>(kMaxBagTuples - 1));

  ResultSet a(BagSpec::Recent(1 << 20));
  ResultSet b(BagSpec::Recent(1 << 20));
  for (size_t i = 0; i < kMaxBagTuples; ++i) {
    a.AddInput(T(1));
    b.AddInput(T(2));
  }
  a.Absorb(b);
  EXPECT_EQ(a.size(), kMaxBagTuples);
  EXPECT_EQ(a.dropped(), kMaxBagTuples);
  EXPECT_EQ(a.StateRows().front().Get("x").int_value(), 2);
}

// The weave command's Pack op carries the spec (advice_io); its decoder
// rejects a firstN/recentN limit outside 1..kMaxBagTuples.
TEST(BagOverflowTest, DecodeRejectsLimitsOutsideTheValve) {
  auto decodes = [](const BagSpec& spec) {
    std::vector<uint8_t> bytes;
    PutBagSpec(&bytes, spec);
    size_t pos = 0;
    BagSpec decoded;
    return GetBagSpec(bytes.data(), bytes.size(), &pos, &decoded) && decoded == spec;
  };
  EXPECT_FALSE(decodes(BagSpec::Recent(1 << 20)));
  EXPECT_FALSE(decodes(BagSpec::First(kMaxBagTuples + 1)));
  EXPECT_FALSE(decodes(BagSpec::First(0)));
  EXPECT_TRUE(decodes(BagSpec::Recent(kMaxBagTuples)));
  EXPECT_TRUE(decodes(BagSpec::First(1)));
}

TEST(BagOverflowTest, DecodedBagIsTrimmedToItsSpec) {
  // A peer's bag holding more tuples than the receiving schema keeps: three
  // tuples read under RecentN(2) decode as the last two.
  Baggage baggage;
  for (int64_t i = 1; i <= 3; ++i) {
    baggage.Pack(1, BagSpec::All(), T(i));
  }
  Result<Baggage> decoded = Baggage::Deserialize(baggage.Serialize());
  ASSERT_TRUE(decoded.ok());
  std::vector<Tuple> kept = UnpackCopy(*decoded, 1, Schema(BagSpec::Recent(2), {"x"}));
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].Get("x").int_value(), 2);
  EXPECT_EQ(kept[1].Get("x").int_value(), 3);
  EXPECT_EQ(decoded->DroppedTupleCount(), 0u);
}

// ---------------------------------------------------------------------------
// Table 4 split/join, with the branch crossing a process boundary

TEST(SplitJoinTest, ForkIsolatesAndJoinMerges) {
  ExecutionContext ctx;
  ctx.baggage().Pack(1, BagSpec::All(), T(1));

  // Branch side: its half of the baggage, carried over the wire.
  ExecutionContext forked = ctx.Fork();
  ExecutionContext branch = Arrive(Depart(&forked), nullptr);

  // Parent packs on its half.
  ctx.baggage().Pack(1, BagSpec::All(), T(2));

  // The pre-split tuple is visible to the branch...
  EXPECT_EQ(UnpackCopy(branch.baggage(), 1, Schema(BagSpec::All(), {"x"})).size(), 1u);
  branch.baggage().Pack(1, BagSpec::All(), T(3));

  // ...but the parent's concurrent pack is not, until join.
  EXPECT_EQ(CanonicalTuples(UnpackCopy(ctx.baggage(), 1)),
            (std::vector<std::string>{"(x=1)", "(x=2)"}));

  ctx.Join(Arrive(Depart(&branch), nullptr));
  EXPECT_EQ(CanonicalTuples(UnpackCopy(ctx.baggage(), 1)),
            (std::vector<std::string>{"(x=1)", "(x=2)", "(x=3)"}));
  // The interval returns whole after the join.
  EXPECT_EQ(ctx.baggage().active_id(), ItcId::Seed());
}

}  // namespace
}  // namespace pivot
