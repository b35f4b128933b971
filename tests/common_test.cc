#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "src/common/rand.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/varint.h"

namespace pivot {
namespace {

// ---------------------------------------------------------------------------
// Status / Result

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad query");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad query");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad query");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "ALREADY_EXISTS");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DATA_LOSS");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "UNIMPLEMENTED");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

// ---------------------------------------------------------------------------
// Varint

TEST(VarintTest, EncodesSmallValuesInOneByte) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 0);
  PutVarint64(&buf, 127);
  EXPECT_EQ(buf.size(), 2u);
}

class VarintRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTripTest, RoundTrips) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, GetParam());
  // Seven payload bits per byte; zero still takes one byte.
  EXPECT_EQ(buf.size(), std::max<size_t>(1, (std::bit_width(GetParam()) + 6) / 7));
  size_t pos = 0;
  uint64_t decoded = 0;
  ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &decoded));
  EXPECT_EQ(decoded, GetParam());
  EXPECT_EQ(pos, buf.size());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintRoundTripTest,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull, 300ull, 16383ull,
                                           16384ull, (1ull << 32) - 1, 1ull << 32,
                                           std::numeric_limits<uint64_t>::max()));

class SignedVarintRoundTripTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(SignedVarintRoundTripTest, RoundTrips) {
  std::vector<uint8_t> buf;
  PutVarintSigned64(&buf, GetParam());
  size_t pos = 0;
  int64_t decoded = 0;
  ASSERT_TRUE(GetVarintSigned64(buf.data(), buf.size(), &pos, &decoded));
  EXPECT_EQ(decoded, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, SignedVarintRoundTripTest,
                         ::testing::Values(int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-64},
                                           int64_t{64}, std::numeric_limits<int64_t>::min(),
                                           std::numeric_limits<int64_t>::max()));

TEST(VarintTest, ZigZagKeepsSmallNegativesSmall) {
  std::vector<uint8_t> buf;
  PutVarintSigned64(&buf, -3);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(VarintTest, RejectsTruncatedInput) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 1ull << 60);
  buf.pop_back();
  size_t pos = 0;
  uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint64(buf.data(), buf.size(), &pos, &decoded));
}

TEST(VarintTest, RejectsEmptyInput) {
  size_t pos = 0;
  uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint64(nullptr, 0, &pos, &decoded));
}

TEST(VarintTest, PropertyRandomRoundTrip) {
  Rng rng(7);
  std::vector<uint8_t> buf;
  for (int i = 0; i < 2000; ++i) {
    buf.clear();
    // Bias toward interesting bit-lengths.
    uint64_t v = rng.NextUint64() >> rng.NextBelow(64);
    PutVarint64(&buf, v);
    size_t pos = 0;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(buf.data(), buf.size(), &pos, &decoded));
    ASSERT_EQ(decoded, v);
  }
}

// ---------------------------------------------------------------------------
// Strings

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, JoinInvertsSplit) {
  std::vector<std::string> pieces = {"A", "B", "C"};
  EXPECT_EQ(StrJoin(pieces, ","), "A,B,C");
  EXPECT_EQ(StrSplit(StrJoin(pieces, ","), ','), pieces);
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("GroupBy", "groupby"));
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("Select", "Selec"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

// ---------------------------------------------------------------------------
// Rng

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextIntInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  EXPECT_NE(a.NextUint64(), child.NextUint64());
}

}  // namespace
}  // namespace pivot
