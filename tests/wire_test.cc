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

// Tuple sets travel in one codec, ResultSet::Encode (the SetFrame of report
// frames and baggage bags). A streaming set's rows are read back under its
// column names, as a report carries them.
std::vector<Tuple> RoundTripRows(const std::vector<Tuple>& rows) {
  ResultSet set{ResultPlan{}};
  for (const Tuple& t : rows) {
    set.AddInput(t);
  }
  std::vector<uint8_t> buf;
  set.Encode(&buf);
  const std::vector<std::string> names = set.ColumnNames();
  size_t pos = 0;
  SetFrame frame;
  EXPECT_TRUE(SetFrame::Get(buf.data(), buf.size(), &pos, &frame));
  EXPECT_EQ(pos, buf.size());
  EXPECT_TRUE(frame.Fits(names.size()));
  ResultSet decoded = set.EmptyLike();
  EXPECT_TRUE(decoded.DecodeNamed(names, frame));
  return decoded.Finalize();
}

// Encodes `rows` as a streaming set.
std::vector<uint8_t> Encoded(const std::vector<Tuple>& rows) {
  ResultSet set{ResultPlan{}};
  for (const Tuple& t : rows) {
    set.AddInput(t);
  }
  std::vector<uint8_t> buf;
  set.Encode(&buf);
  return buf;
}

TEST(WireTest, TupleRoundTrip) {
  Tuple t{{"host", Value("A")}, {"delta", Value(int64_t{4096})}, {"f", Value(0.5)}};
  EXPECT_EQ(RoundTripRows({t}), std::vector<Tuple>{t});
  // Rows are dense: one value per column, and no field count or name index.
  std::vector<uint8_t> one = Encoded({t});
  std::vector<uint8_t> two = Encoded({t, t});
  EXPECT_EQ(one[0], 1 << 1);  // One row, no valve.
  EXPECT_EQ(two.size() - one.size(), 3 + 3 + 9);  // "A", 4096, 0.5.
  EXPECT_EQ(RoundTripRows({t, t}), (std::vector<Tuple>{t, t}));
}

TEST(WireTest, EmptyTupleRoundTrip) {
  EXPECT_TRUE(RoundTripRows({}).empty());
  // Empty rows have no columns, so they take no payload bytes: only the
  // frame's row count records them.
  EXPECT_EQ(Encoded({Tuple(), Tuple()}), (std::vector<uint8_t>{2 << 1, 0, 0}));
  std::vector<Tuple> decoded = RoundTripRows({Tuple(), Tuple()});
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_TRUE(decoded[0].empty());
  EXPECT_TRUE(decoded[1].empty());
}

TEST(WireTest, MixedColumnsFollowTheFirstRow) {
  // A set's columns are its first row's: a later row is written in that
  // order, with null for a column it lacks and without columns it adds.
  Tuple ab{{"a", Value(int64_t{1})}, {"b", Value("x")}};
  Tuple ba{{"b", Value("y")}, {"a", Value(int64_t{2})}};
  Tuple c{{"c", Value()}, {"a", Value(int64_t{3})}};
  Tuple a2{{"a", Value(int64_t{2})}, {"b", Value("y")}};
  Tuple a3{{"a", Value(int64_t{3})}, {"b", Value()}};
  EXPECT_EQ(RoundTripRows({ab, ba, c}), (std::vector<Tuple>{ab, a2, a3}));
  EXPECT_EQ(Encoded({ab, ba}), Encoded({ab, a2}));
}

TEST(WireTest, TupleRejectsAbsurdFieldCount) {
  size_t pos = 0;
  SetFrame frame;
  // A payload longer than the input.
  std::vector<uint8_t> length = {1 << 1, 0};
  PutVarint64(&length, 1ull << 40);
  EXPECT_FALSE(SetFrame::Get(length.data(), length.size(), &pos, &frame));
  // More rows than values.
  std::vector<uint8_t> rows;
  PutVarint64(&rows, 1ull << 41);
  rows.insert(rows.end(), {0, 2, static_cast<uint8_t>(ValueType::kNull),
                           static_cast<uint8_t>(ValueType::kNull)});
  ASSERT_TRUE(SetFrame::Get(rows.data(), rows.size(), &(pos = 0), &frame));
  EXPECT_FALSE(frame.Fits(1));
  ResultSet set{ResultPlan{}};
  EXPECT_FALSE(set.Decode({InternSymbol("a")}, frame));
  // Values that do not fill whole rows, or are followed by stray bytes.
  std::vector<uint8_t> odd = {2 << 1, 0, 3, static_cast<uint8_t>(ValueType::kNull),
                              static_cast<uint8_t>(ValueType::kNull),
                              static_cast<uint8_t>(ValueType::kNull)};
  ASSERT_TRUE(SetFrame::Get(odd.data(), odd.size(), &(pos = 0), &frame));
  EXPECT_FALSE(frame.Fits(2));
  EXPECT_FALSE(frame.Fits(1));
  EXPECT_TRUE((SetFrame{3, false, 0, frame.payload, frame.length}.Fits(1)));
  // Rows of no columns carry no values.
  EXPECT_FALSE(frame.Fits(0));
  EXPECT_TRUE((SetFrame{1ull << 40, false, 0, nullptr, 0}.Fits(0)));
}

TEST(WireTest, TruncatedRowsRejected) {
  for (const std::vector<Tuple>& rows :
       {std::vector<Tuple>{Tuple{{"a", Value("xyz")}, {"b", Value(1.5)}}},
        std::vector<Tuple>{Tuple{{"a", Value("xyz")}}, Tuple{{"a", Value(int64_t{7})}}}}) {
    const std::vector<uint8_t> buf = Encoded(rows);
    std::vector<std::string> names;
    for (const Tuple::Field& f : rows.front().fields()) {
      names.emplace_back(SymbolName(f.id));
    }
    for (size_t cut = 0; cut < buf.size(); ++cut) {
      size_t pos = 0;
      SetFrame frame;
      EXPECT_FALSE(SetFrame::Get(buf.data(), cut, &pos, &frame)) << "cut=" << cut;
    }
    // The payload cut short, with the frame's length patched to match (the
    // frame is three one-byte varints).
    for (size_t cut = 3; cut < buf.size(); ++cut) {
      const SetFrame frame{rows.size(), false, 0, buf.data() + 3, cut - 3};
      ResultSet set{ResultPlan{}};
      EXPECT_FALSE(frame.Fits(names.size())) << "cut=" << cut;
      EXPECT_FALSE(set.DecodeNamed(names, frame)) << "cut=" << cut;
    }
  }
}

TEST(WireTest, TupleFuzzRoundTrip) {
  Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    // Every row of a set has its first row's columns; the columns, their
    // count and their values are random.
    const int fields = static_cast<int>(rng.NextBelow(8));
    std::vector<std::string> names;
    for (int i = 0; i < fields; ++i) {
      names.push_back("f" + std::to_string(rng.NextBelow(10)) + "." + std::to_string(i));
    }
    std::vector<Tuple> rows(rng.NextBelow(5));
    for (Tuple& t : rows) {
      for (const std::string& name : names) {
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
