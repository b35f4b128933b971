#include <gtest/gtest.h>

#include "src/common/rand.h"
#include "src/core/aggregation.h"
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

// Tuple sets travel in one codec, PutRows/GetRows (the result-set wire form
// of report frames and baggage bags).
std::vector<Tuple> RoundTripRows(const std::vector<Tuple>& rows) {
  std::vector<uint8_t> buf;
  PutRows(&buf, rows);
  size_t pos = 0;
  std::vector<Tuple> decoded;
  EXPECT_TRUE(GetRows(buf.data(), buf.size(), &pos, &decoded));
  EXPECT_EQ(pos, buf.size());
  EXPECT_TRUE(ResultSet::Skip(buf.data(), buf.size(), &(pos = 0)));
  EXPECT_EQ(pos, buf.size());
  return decoded;
}

TEST(WireTest, TupleRoundTrip) {
  Tuple t{{"host", Value("A")}, {"delta", Value(int64_t{4096})}, {"f", Value(0.5)}};
  EXPECT_EQ(RoundTripRows({t}), std::vector<Tuple>{t});
  // Rows with the same columns in the same order are dense: one value per
  // column, and no field count or name index.
  std::vector<uint8_t> one;
  std::vector<uint8_t> two;
  PutRows(&one, {t});
  PutRows(&two, {t, t});
  EXPECT_EQ(one[0], 3 << 1 | 1);
  EXPECT_EQ(two.size() - one.size(), 3 + 3 + 9);  // "A", 4096, 0.5.
  EXPECT_EQ(RoundTripRows({t, t}), (std::vector<Tuple>{t, t}));
}

TEST(WireTest, EmptyTupleRoundTrip) {
  EXPECT_TRUE(RoundTripRows({}).empty());
  // Empty rows have no name table, so they travel sparse: one field count
  // of zero each.
  std::vector<uint8_t> buf;
  PutRows(&buf, {Tuple(), Tuple()});
  EXPECT_EQ(buf, (std::vector<uint8_t>{0, 2, 0, 0}));
  std::vector<Tuple> decoded = RoundTripRows({Tuple(), Tuple()});
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_TRUE(decoded[0].empty());
  EXPECT_TRUE(decoded[1].empty());
}

TEST(WireTest, MixedColumnsTravelSparse) {
  // Different columns, or the same columns in another order, make the set
  // sparse: a name table of every name in first-seen order, then (name
  // index, value) pairs per row.
  Tuple ab{{"a", Value(int64_t{1})}, {"b", Value("x")}};
  Tuple ba{{"b", Value("y")}, {"a", Value(int64_t{2})}};
  Tuple c{{"c", Value()}};
  std::vector<uint8_t> buf;
  PutRows(&buf, {ab, ba, c});
  EXPECT_EQ(buf[0], 3 << 1);
  EXPECT_EQ(RoundTripRows({ab, ba, c}), (std::vector<Tuple>{ab, ba, c}));
  EXPECT_EQ(RoundTripRows({ab, Tuple(), ab}), (std::vector<Tuple>{ab, Tuple(), ab}));
}

TEST(WireTest, TupleRejectsAbsurdFieldCount) {
  std::vector<Tuple> rows;
  size_t pos = 0;
  // A name table longer than the input.
  std::vector<uint8_t> names;
  PutVarint64(&names, 1ull << 41);
  EXPECT_FALSE(GetRows(names.data(), names.size(), &pos, &rows));
  // More rows than bytes.
  std::vector<uint8_t> row_count = {0};
  PutVarint64(&row_count, 1ull << 40);
  EXPECT_FALSE(GetRows(row_count.data(), row_count.size(), &(pos = 0), &rows));
  // A sparse row claiming more fields than bytes.
  std::vector<uint8_t> fields = {0, 1};
  PutVarint64(&fields, 1ull << 40);
  EXPECT_FALSE(GetRows(fields.data(), fields.size(), &(pos = 0), &rows));
  // A name index past the table.
  std::vector<uint8_t> index = {2, 1, 'a', 1, 1, 1, static_cast<uint8_t>(ValueType::kNull)};
  EXPECT_FALSE(GetRows(index.data(), index.size(), &(pos = 0), &rows));
  index[4] = 0;
  EXPECT_TRUE(GetRows(index.data(), index.size(), &(pos = 0), &rows));
  for (const auto* bad : {&names, &row_count, &fields}) {
    EXPECT_FALSE(ResultSet::Skip(bad->data(), bad->size(), &(pos = 0)));
  }
}

TEST(WireTest, TruncatedRowsRejected) {
  for (const std::vector<Tuple>& rows :
       {std::vector<Tuple>{Tuple{{"a", Value("xyz")}, {"b", Value(1.5)}}},
        std::vector<Tuple>{Tuple{{"a", Value("xyz")}}, Tuple{{"b", Value(int64_t{7})}}}}) {
    std::vector<uint8_t> buf;
    PutRows(&buf, rows);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      size_t pos = 0;
      std::vector<Tuple> decoded;
      EXPECT_FALSE(GetRows(buf.data(), cut, &pos, &decoded)) << "cut=" << cut;
      EXPECT_FALSE(ResultSet::Skip(buf.data(), cut, &(pos = 0))) << "cut=" << cut;
    }
  }
}

TEST(WireTest, TupleFuzzRoundTrip) {
  Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    // Half the sets share one column list (dense), half draw each row's
    // columns afresh (usually sparse).
    const bool shared = rng.NextBelow(2) == 0;
    const int shared_fields = static_cast<int>(rng.NextBelow(8));
    std::vector<Tuple> rows(rng.NextBelow(5));
    for (Tuple& t : rows) {
      int fields = shared ? shared_fields : static_cast<int>(rng.NextBelow(8));
      for (int i = 0; i < fields; ++i) {
        std::string name = "f" + std::to_string(shared ? i : rng.NextBelow(10));
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
    }
    ASSERT_EQ(RoundTripRows(rows), rows);
  }
}

}  // namespace
}  // namespace pivot
