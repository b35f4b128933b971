#include <gtest/gtest.h>

#include <vector>

#include "src/common/rand.h"
#include "src/core/itc.h"

namespace pivot {
namespace {

TEST(ItcTest, DefaultIsZero) {
  ItcId id;
  EXPECT_TRUE(id.IsZero());
  EXPECT_FALSE(id.IsOne());
}

TEST(ItcTest, SeedOwnsEverything) {
  ItcId seed = ItcId::Seed();
  EXPECT_TRUE(seed.IsOne());
  EXPECT_FALSE(seed.IsZero());
}

TEST(ItcTest, SplitSeedMatchesPaper) {
  // split(1) = ((1,0), (0,1)) from the ITC paper.
  auto [l, r] = ItcId::Seed().Split();
  EXPECT_EQ(l.ToString(), "(1, 0)");
  EXPECT_EQ(r.ToString(), "(0, 1)");
}

TEST(ItcTest, SplitHalvesAreDisjoint) {
  auto [l, r] = ItcId::Seed().Split();
  EXPECT_FALSE(ItcId::Overlaps(l, r));
}

TEST(ItcTest, SplitHalvesJoinBackToOriginal) {
  auto [l, r] = ItcId::Seed().Split();
  EXPECT_EQ(ItcId::Join(l, r), ItcId::Seed());
}

TEST(ItcTest, NestedSplitJoinNormalizes) {
  auto [l, r] = ItcId::Seed().Split();
  auto [ll, lr] = l.Split();
  // Rejoining in a different grouping still recovers the seed.
  ItcId joined = ItcId::Join(ItcId::Join(lr, r), ll);
  EXPECT_EQ(joined, ItcId::Seed());
}

TEST(ItcTest, JoinWithZeroIsIdentity) {
  auto [l, r] = ItcId::Seed().Split();
  EXPECT_EQ(ItcId::Join(l, ItcId()), l);
  EXPECT_EQ(ItcId::Join(ItcId(), r), r);
}

TEST(ItcTest, OverlapDetection) {
  ItcId seed = ItcId::Seed();
  auto [l, r] = seed.Split();
  EXPECT_TRUE(ItcId::Overlaps(seed, l));
  EXPECT_TRUE(ItcId::Overlaps(l, l));
  EXPECT_FALSE(ItcId::Overlaps(l, r));
  EXPECT_FALSE(ItcId::Overlaps(ItcId(), seed));
}

TEST(ItcTest, EncodeDecodeRoundTrip) {
  auto [l, r] = ItcId::Seed().Split();
  auto [ll, lr] = l.Split();
  for (const ItcId& id : {ItcId(), ItcId::Seed(), l, r, ll, lr}) {
    std::vector<uint8_t> buf;
    id.Encode(&buf);
    size_t pos = 0;
    ItcId decoded;
    ASSERT_TRUE(ItcId::Decode(buf.data(), buf.size(), &pos, &decoded));
    EXPECT_EQ(decoded, id);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(ItcTest, DecodeRejectsTruncated) {
  std::vector<uint8_t> buf;
  ItcId::Seed().Split().first.Encode(&buf);
  buf.pop_back();
  size_t pos = 0;
  ItcId decoded;
  EXPECT_FALSE(ItcId::Decode(buf.data(), buf.size(), &pos, &decoded));
}

TEST(ItcTest, DecodeRejectsGarbage) {
  std::vector<uint8_t> buf = {0x07};
  size_t pos = 0;
  ItcId decoded;
  EXPECT_FALSE(ItcId::Decode(buf.data(), buf.size(), &pos, &decoded));
}

TEST(ItcTest, DecodeRejectsDeepNesting) {
  // 600 interior-node tags with no leaves exhausts the depth cap, not the
  // stack.
  std::vector<uint8_t> buf(600, 0x02);
  size_t pos = 0;
  ItcId decoded;
  EXPECT_FALSE(ItcId::Decode(buf.data(), buf.size(), &pos, &decoded));
}

// Property test: arbitrary split/join trees preserve the two ITC invariants
// the baggage layer depends on — concurrently-held IDs are pairwise disjoint,
// and joining everything back recovers the seed.
class ItcPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ItcPropertyTest, RandomSplitJoinSequences) {
  Rng rng(GetParam());
  std::vector<ItcId> held = {ItcId::Seed()};
  for (int step = 0; step < 200; ++step) {
    if (held.size() == 1 || (held.size() < 12 && rng.NextBool())) {
      // Split a random held id (non-zero ones only).
      size_t i = rng.NextBelow(held.size());
      if (held[i].IsZero()) {
        continue;
      }
      auto [l, r] = held[i].Split();
      held[i] = l;
      held.push_back(r);
    } else {
      // Join two random distinct held ids.
      size_t i = rng.NextBelow(held.size());
      size_t j = rng.NextBelow(held.size());
      if (i == j) {
        continue;
      }
      held[i] = ItcId::Join(held[i], held[j]);
      held.erase(held.begin() + static_cast<ptrdiff_t>(j));
    }
    // Invariant 1: pairwise disjoint.
    for (size_t a = 0; a < held.size(); ++a) {
      for (size_t b = a + 1; b < held.size(); ++b) {
        ASSERT_FALSE(ItcId::Overlaps(held[a], held[b]))
            << held[a].ToString() << " overlaps " << held[b].ToString();
      }
    }
  }
  // Invariant 2: joining everything recovers the seed.
  ItcId all;
  for (const auto& id : held) {
    all = ItcId::Join(all, id);
  }
  EXPECT_EQ(all, ItcId::Seed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ItcPropertyTest, ::testing::Range(uint64_t{1}, uint64_t{21}));

}  // namespace
}  // namespace pivot
