#include <gtest/gtest.h>

#include "src/common/rand.h"
#include "src/core/wire.h"

namespace pivot {

// CTest names each ValueRoundTripTest case after its printed parameter. The
// default printer dumps a Value's raw bytes (heap pointers, unset padding), so
// print the type and content instead and keep the names the same in every build.
void PrintTo(const Value& v, std::ostream* os) {
  switch (v.type()) {
    case ValueType::kNull:
      *os << "null";
      return;
    case ValueType::kInt:
      *os << "int:" << v.ToString();
      return;
    case ValueType::kDouble:
      *os << "double:" << v.ToString();
      return;
    case ValueType::kString:
      if (v.string_value().size() <= 16) {
        *os << "string:" << v.string_value();
      } else {
        *os << "string:" << v.string_value().size() << " bytes";
      }
      return;
  }
}

namespace {

TEST(WireTest, StringRoundTrip) {
  std::vector<uint8_t> buf;
  PutString(&buf, "hello");
  PutString(&buf, "");
  size_t pos = 0;
  std::string a;
  std::string b;
  ASSERT_TRUE(GetString(buf.data(), buf.size(), &pos, &a));
  ASSERT_TRUE(GetString(buf.data(), buf.size(), &pos, &b));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(pos, buf.size());
}

TEST(WireTest, StringRejectsLengthBeyondBuffer) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 100);  // Claims 100 bytes; none follow.
  size_t pos = 0;
  std::string s;
  EXPECT_FALSE(GetString(buf.data(), buf.size(), &pos, &s));
}

class ValueRoundTripTest : public ::testing::TestWithParam<Value> {};

TEST_P(ValueRoundTripTest, RoundTrips) {
  std::vector<uint8_t> buf;
  PutValue(&buf, GetParam());
  size_t pos = 0;
  Value v;
  ASSERT_TRUE(GetValue(buf.data(), buf.size(), &pos, &v));
  EXPECT_EQ(v, GetParam());
  EXPECT_EQ(v.type(), GetParam().type());
  EXPECT_EQ(pos, buf.size());
}

INSTANTIATE_TEST_SUITE_P(AllTypes, ValueRoundTripTest,
                         ::testing::Values(Value(), Value(int64_t{0}), Value(int64_t{-12345}),
                                           Value(int64_t{1} << 60), Value(0.0), Value(-2.75),
                                           Value(1e300), Value(""), Value("procName"),
                                           Value(std::string(1000, 'x'))));

TEST(WireTest, ValueRejectsUnknownTag) {
  std::vector<uint8_t> buf = {0x09};
  size_t pos = 0;
  Value v;
  EXPECT_FALSE(GetValue(buf.data(), buf.size(), &pos, &v));
}

TEST(WireTest, ValueRejectsTruncatedDouble) {
  std::vector<uint8_t> buf = {static_cast<uint8_t>(ValueType::kDouble), 1, 2, 3};
  size_t pos = 0;
  Value v;
  EXPECT_FALSE(GetValue(buf.data(), buf.size(), &pos, &v));
}

TEST(WireTest, TupleRoundTrip) {
  Tuple t{{"host", Value("A")}, {"delta", Value(int64_t{4096})}, {"f", Value(0.5)}};
  std::vector<uint8_t> buf;
  PutTuple(&buf, t);
  size_t pos = 0;
  Tuple decoded;
  ASSERT_TRUE(GetTuple(buf.data(), buf.size(), &pos, &decoded));
  EXPECT_EQ(decoded, t);
}

TEST(WireTest, EmptyTupleRoundTrip) {
  std::vector<uint8_t> buf;
  PutTuple(&buf, Tuple());
  size_t pos = 0;
  Tuple decoded;
  ASSERT_TRUE(GetTuple(buf.data(), buf.size(), &pos, &decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(WireTest, TupleRejectsAbsurdFieldCount) {
  std::vector<uint8_t> buf;
  PutVarint64(&buf, 1ull << 40);
  size_t pos = 0;
  Tuple decoded;
  EXPECT_FALSE(GetTuple(buf.data(), buf.size(), &pos, &decoded));
}

TEST(WireTest, TupleFuzzRoundTrip) {
  Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    Tuple t;
    int fields = static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < fields; ++i) {
      std::string name = "f" + std::to_string(i);
      switch (rng.NextBelow(4)) {
        case 0:
          t.Append(name, Value());
          break;
        case 1:
          t.Append(name, Value(rng.NextInt(-1000000, 1000000)));
          break;
        case 2:
          t.Append(name, Value(rng.NextDouble()));
          break;
        default:
          t.Append(name, Value(std::string(rng.NextBelow(20), 's')));
          break;
      }
    }
    std::vector<uint8_t> buf;
    PutTuple(&buf, t);
    size_t pos = 0;
    Tuple decoded;
    ASSERT_TRUE(GetTuple(buf.data(), buf.size(), &pos, &decoded));
    ASSERT_EQ(decoded, t);
  }
}

}  // namespace
}  // namespace pivot
