#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/agent/protocol.h"
#include "src/common/rand.h"
#include "src/common/varint.h"
#include "src/core/baggage.h"
#include "src/core/symbol.h"
#include "src/core/wire.h"

namespace pivot {
namespace {

TEST(ProtocolTest, WeaveRoundTrip) {
  WeaveCommand cmd;
  cmd.query_id = 42;
  cmd.advice.emplace_back("ClientProtocols", AdviceBuilder()
                                                 .Observe({{"procName", "cl.procName"}})
                                                 .Pack(100, BagSpec::First(1), {"cl.procName"})
                                                 .Build());
  cmd.advice.emplace_back(
      "DataNodeMetrics.incrBytesRead",
      AdviceBuilder().Observe({{"delta", "incr.delta"}}).Unpack(100).Emit(42, {}).Build());
  cmd.plan.group_fields = {"cl.procName"};
  cmd.plan.aggs = {{AggFn::kSum, "incr.delta", "SUM(incr.delta)", false}};

  Result<ControlMessage> decoded = DecodeControlMessage(EncodeWeave(cmd));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->type, ControlMessageType::kWeave);
  EXPECT_EQ(decoded->weave.query_id, 42u);
  ASSERT_EQ(decoded->weave.advice.size(), 2u);
  EXPECT_EQ(decoded->weave.advice[0].first, "ClientProtocols");
  EXPECT_EQ(decoded->weave.advice[0].second->ToString(), cmd.advice[0].second->ToString());
  EXPECT_EQ(decoded->weave.plan.group_fields, (std::vector<std::string>{"cl.procName"}));
  EXPECT_EQ(decoded->weave.plan.aggs, cmd.plan.aggs);
}

TEST(ProtocolTest, UnweaveRoundTrip) {
  Result<ControlMessage> decoded = DecodeControlMessage(EncodeUnweave(17));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, ControlMessageType::kUnweave);
  EXPECT_EQ(decoded->unweave_query_id, 17u);
}

// The aggregated plan of the reports below: SUM(incr.delta) by incr.host.
ResultPlan SumByHost() {
  ResultPlan plan;
  plan.group_fields = {"incr.host"};
  plan.aggs = {{AggFn::kSum, "incr.delta", "SUM(incr.delta)", false}};
  return plan;
}

// A report of `plan` holding `rows` (raw inputs for an aggregated plan).
AgentReport Report(uint64_t query_id, const ResultPlan& plan, const std::vector<Tuple>& rows) {
  AgentReport report{query_id, ResultSet(plan)};
  for (const Tuple& t : rows) {
    report.results.AddInput(t);
  }
  return report;
}

// Decodes reports of query 7 as SumByHost and every other query as streaming.
class PlanLookup {
 public:
  ReportSetLookup lookup() const {
    return [this](uint64_t query_id) { return query_id == 7 ? &sum_ : &streaming_; };
  }

  // The set a received report holds: its bytes decoded into an empty set of
  // its query's plan.
  ResultSet Decoded(const ReceivedReport& report) const {
    ResultSet set = (report.query_id == 7 ? sum_ : streaming_).EmptyLike();
    EXPECT_TRUE(set.DecodeSlices(report.wire));
    return set;
  }

 private:
  ResultSet sum_{SumByHost()};
  ResultSet streaming_{ResultPlan{}};
};

std::vector<std::string> Rendered(const ResultSet& set) {
  std::vector<std::string> out;
  for (const Tuple& t : set.Finalize()) {
    out.push_back(t.ToString());
  }
  return out;
}

TEST(ProtocolTest, ReportRoundTrip) {
  // A lone report travels as a batch of one.
  ReportBatch batch;
  batch.host = "C";
  batch.process_name = "DataNode";
  batch.timestamp_micros = 3'000'000;
  batch.reports.push_back(
      Report(7, SumByHost(), {Tuple{{"incr.host", Value("C")}, {"incr.delta", Value(int64_t{12345})}}}));

  PlanLookup plans;
  Result<ControlMessage> decoded = DecodeControlMessage(EncodeReportBatch(batch), plans.lookup());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->type, ControlMessageType::kBatch);
  ASSERT_EQ(decoded->batch.reports.size(), 1u);
  EXPECT_EQ(decoded->batch.host, "C");
  EXPECT_EQ(decoded->batch.timestamp_micros, 3'000'000);
  const ReceivedReport& r = decoded->batch.reports[0];
  EXPECT_EQ(r.query_id, 7u);
  EXPECT_EQ(Rendered(plans.Decoded(r)),
            (std::vector<std::string>{"(incr.host=C, SUM(incr.delta)=12345)"}));
}

TEST(ProtocolTest, ReportBatchRoundTrip) {
  ReportBatch batch;
  batch.host = "C";
  batch.process_name = "DataNode";
  batch.timestamp_micros = 3'000'000;

  batch.reports.push_back(
      Report(7, SumByHost(), {Tuple{{"incr.host", Value("C")}, {"incr.delta", Value(int64_t{12345})}}}));
  batch.reports.push_back(
      Report(9, ResultPlan{}, {Tuple{{"x.v", Value(int64_t{1})}}, Tuple{{"x.v", Value(int64_t{2})}}}));

  AgentStats hb;
  hb.query_id = 11;
  hb.reports_suppressed = 10;
  batch.heartbeats = {hb};

  std::vector<size_t> report_bytes;
  std::vector<uint8_t> encoded = EncodeReportBatch(batch, &report_bytes);
  // The exact frame. Host, process and timestamp appear once, in the header;
  // a report is (query id, name list, set), and a heartbeat is (query id,
  // suppressed count), with nothing else per entry. The set is a baggage
  // bag's: (row count << 1 | valve, dropped, payload length), then one value
  // per name and row, with no field count or name index.
  const std::vector<uint8_t> expected = {
      0x07,                                       // kBatch.
      1, 'C',                                     // host.
      8, 'D', 'a', 't', 'a', 'N', 'o', 'd', 'e',  // process_name.
      0x80, 0x9B, 0xEE, 0x02,                     // timestamp 3'000'000 (zig-zag).
      2,                                          // Report count.
      7,                                          // r1: query 7.
      2,                                          //   Two names:
      9, 'i', 'n', 'c', 'r', '.', 'h', 'o', 's', 't',
      15, 'S', 'U', 'M', '(', 'i', 'n', 'c', 'r', '.', 'd', 'e', 'l', 't', 'a', ')',
      1 << 1, 0, 7,                               //   One row, no drops, 7 bytes:
      3, 1, 'C',                                  //     "C",
      1, 0xF2, 0xC0, 0x01,                        //     int 12345 (zig-zag).
      9,                                          // r2: query 9.
      1, 3, 'x', '.', 'v',                        //   One name.
      2 << 1, 0, 4,                               //   Two rows, no drops, 4 bytes:
      1, 2,                                       //     {x.v: 1},
      1, 4,                                       //     {x.v: 2}.
      1,                                          // Heartbeat count.
      11, 10,                                     // Query 11, 10 suppressed.
  };
  EXPECT_EQ(encoded, expected);
  EXPECT_EQ(report_bytes, (std::vector<size_t>{38, 13}));

  PlanLookup plans;
  Result<ControlMessage> decoded = DecodeControlMessage(encoded, plans.lookup());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->type, ControlMessageType::kBatch);
  const ReceivedBatch& b = decoded->batch;
  EXPECT_EQ(b.host, "C");
  EXPECT_EQ(b.process_name, "DataNode");
  EXPECT_EQ(b.timestamp_micros, 3'000'000);
  ASSERT_EQ(b.reports.size(), 2u);
  EXPECT_EQ(b.reports[0].query_id, 7u);
  EXPECT_EQ(Rendered(plans.Decoded(b.reports[0])),
            (std::vector<std::string>{"(incr.host=C, SUM(incr.delta)=12345)"}));
  EXPECT_EQ(b.reports[1].query_id, 9u);
  EXPECT_EQ(Rendered(plans.Decoded(b.reports[1])),
            (std::vector<std::string>{"(x.v=1)", "(x.v=2)"}));
  ASSERT_EQ(b.heartbeats.size(), 1u);
  EXPECT_EQ(b.heartbeats[0].query_id, 11u);
  EXPECT_EQ(b.heartbeats[0].reports_suppressed, 10u);
}

TEST(ProtocolTest, ReportAndBagCarryOneSetEncoding) {
  // One set, as a baggage bag (key, set) and as a report (query id, names,
  // set): the set's bytes are the same in both, an aggregate's state
  // (AVERAGE included) and a streaming set's rows alike.
  ResultPlan avg_by_g;
  avg_by_g.group_fields = {"g"};
  avg_by_g.aggs = {{AggFn::kAverage, "v", "AVG(v)", false}, {AggFn::kCount, "", "COUNT", false}};
  struct Case {
    BagSpec spec;
    std::vector<std::string> names;
    std::vector<Tuple> tuples;
  };
  const std::vector<Case> cases = {
      {BagSpec::Aggregated(avg_by_g.group_fields, avg_by_g.aggs),
       {"g", "AVG(v)", "AVG(v)#n", "COUNT"},
       {Tuple{{"g", Value("a")}, {"v", Value(int64_t{1})}},
        Tuple{{"g", Value("b")}, {"v", Value(2.5)}},
        Tuple{{"g", Value("a")}, {"v", Value(int64_t{4})}}}},
      {BagSpec::First(8),
       {"x", "y"},
       {Tuple{{"x", Value(int64_t{1})}, {"y", Value("s")}},
        Tuple{{"x", Value(int64_t{2})}, {"y", Value("t")}}}},
  };
  constexpr BagKey kKey = 300;
  for (const Case& c : cases) {
    ResultSet set(c.spec);
    Baggage baggage;
    for (const Tuple& t : c.tuples) {
      set.AddInput(t);
      baggage.Pack(kKey, c.spec, t);
    }
    std::vector<uint8_t> set_bytes;
    set.Encode(&set_bytes);

    // One instance (generation 0, the seed id) holding one bag.
    std::vector<uint8_t> bag = {1, 0};
    ItcId::Seed().Encode(&bag);
    bag.push_back(1);
    PutVarint64(&bag, kKey);
    bag.insert(bag.end(), set_bytes.begin(), set_bytes.end());
    EXPECT_EQ(baggage.Serialize(), bag) << c.names[0];

    ReportBatch batch;
    batch.reports.push_back(AgentReport{7, set});
    std::vector<uint8_t> report = {0x07, 0, 0, 0, 1, 7};  // No host, process or time; one report.
    PutStringList(&report, c.names);
    report.insert(report.end(), set_bytes.begin(), set_bytes.end());
    report.push_back(0);  // No heartbeats.
    EXPECT_EQ(EncodeReportBatch(batch), report) << c.names[0];
  }
}

TEST(ProtocolTest, EmptyBatchRoundTrip) {
  ReportBatch batch;
  batch.host = "A";
  batch.process_name = "p";
  Result<ControlMessage> decoded = DecodeControlMessage(EncodeReportBatch(batch));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->batch.reports.empty());
  EXPECT_TRUE(decoded->batch.heartbeats.empty());
}

TEST(ProtocolTest, TruncatedBatchRejected) {
  ReportBatch batch;
  batch.host = "A";
  batch.process_name = "p";
  batch.reports.push_back(Report(1, ResultPlan{}, {Tuple{{"x.v", Value(int64_t{1})}}}));
  batch.reports.push_back(
      Report(7, SumByHost(), {Tuple{{"incr.host", Value("C")}, {"incr.delta", Value(int64_t{4})}}}));
  std::vector<uint8_t> encoded = EncodeReportBatch(batch);
  PlanLookup plans;
  ASSERT_TRUE(DecodeControlMessage(encoded, plans.lookup()).ok());
  for (size_t cut = 1; cut < encoded.size(); ++cut) {
    std::vector<uint8_t> truncated(encoded.begin(), encoded.begin() + cut);
    // Truncation is caught whether the reports are decoded or skipped.
    EXPECT_FALSE(DecodeControlMessage(truncated, plans.lookup()).ok()) << "cut=" << cut;
    EXPECT_FALSE(DecodeControlMessage(truncated).ok()) << "cut=" << cut;
  }
}

TEST(ProtocolTest, ReportNamesMustMatchThePlan) {
  // Query 7's report decoded against a plan with another aggregate, another
  // group field, or one aggregate too many: the name table does not match.
  ReportBatch batch;
  batch.reports.push_back(
      Report(7, SumByHost(), {Tuple{{"incr.host", Value("C")}, {"incr.delta", Value(int64_t{4})}}}));
  const std::vector<uint8_t> encoded = EncodeReportBatch(batch);
  ResultPlan other_agg = SumByHost();
  other_agg.aggs[0].output = "SUM(incr.other)";
  ResultPlan other_group = SumByHost();
  other_group.group_fields = {"incr.path"};
  ResultPlan extra_agg = SumByHost();
  extra_agg.aggs.push_back({AggFn::kCount, "", "COUNT", false});
  for (const ResultPlan& plan : {other_agg, other_group, extra_agg}) {
    ResultSet like(plan);
    EXPECT_FALSE(DecodeControlMessage(encoded, [&like](uint64_t) { return &like; }).ok());
  }
  // The right plan decodes; a receiver that does not track the query skips it.
  ResultSet like(SumByHost());
  EXPECT_TRUE(DecodeControlMessage(encoded, [&like](uint64_t) { return &like; }).ok());
  Result<ControlMessage> skipped = DecodeControlMessage(encoded);
  ASSERT_TRUE(skipped.ok());
  EXPECT_TRUE(skipped->batch.reports.empty());
}

TEST(ProtocolTest, ReportOneValueShortRejected) {
  // A report's set must hold exactly rows x names values, whether it is
  // decoded or skipped: drop the last value of query 9's second row and
  // patch the payload length to match.
  ReportBatch batch;
  batch.reports.push_back(
      Report(9, ResultPlan{}, {Tuple{{"x.v", Value(int64_t{1})}}, Tuple{{"x.v", Value(int64_t{2})}}}));
  std::vector<uint8_t> encoded = EncodeReportBatch(batch);
  PlanLookup plans;
  ASSERT_TRUE(DecodeControlMessage(encoded, plans.lookup()).ok());
  ASSERT_TRUE(DecodeControlMessage(encoded).ok());
  // The frame ends: ... two rows, no drops, 4 bytes {int 1, int 2}, then no
  // heartbeats.
  const std::vector<uint8_t> tail = {2 << 1, 0, 4, 1, 2, 1, 4, 0};
  ASSERT_TRUE(std::equal(tail.begin(), tail.end(), encoded.end() - tail.size()));
  encoded.erase(encoded.end() - 3, encoded.end() - 1);
  encoded[encoded.size() - 4] = 2;
  EXPECT_FALSE(DecodeControlMessage(encoded, plans.lookup()).ok());
  EXPECT_FALSE(DecodeControlMessage(encoded).ok());  // Skipping checks it too.
}

TEST(ProtocolTest, StreamingRowsFollowTheFirstRowsColumns) {
  // A streaming report names its first row's columns once; a later row
  // travels in that order, null where it lacks a column.
  ReportBatch batch;
  batch.reports.push_back(Report(9, ResultPlan{}, {Tuple{{"x.v", Value(int64_t{1})}, {"x.w", Value("a")}},
                                                   Tuple{{"x.w", Value("b")}},
                                                   Tuple{{"x.w", Value("c")}, {"x.v", Value(int64_t{3})}}}));
  PlanLookup plans;
  Result<ControlMessage> decoded = DecodeControlMessage(EncodeReportBatch(batch), plans.lookup());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->batch.reports.size(), 1u);
  EXPECT_EQ(Rendered(plans.Decoded(decoded->batch.reports[0])),
            (std::vector<std::string>{"(x.v=1, x.w=a)", "(x.v=null, x.w=b)", "(x.v=3, x.w=c)"}));
}

TEST(ProtocolTest, ReportRowCountIsBoundedByTheFrame) {
  // Rows of no columns take no payload bytes. A frame keeps at most as many
  // of them as it has bytes and counts the rest as dropped; the frame and
  // its other reports still decode.
  ReportBatch batch;
  batch.reports.push_back(Report(9, ResultPlan{}, {Tuple(), Tuple()}));
  batch.reports.push_back(Report(9, ResultPlan{}, {Tuple{{"x.v", Value(int64_t{1})}}}));
  std::vector<uint8_t> encoded = EncodeReportBatch(batch);
  PlanLookup plans;
  Result<ControlMessage> decoded = DecodeControlMessage(encoded, plans.lookup());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->batch.reports.size(), 2u);
  EXPECT_EQ(decoded->batch.reports[0].rows, 2u);
  EXPECT_EQ(plans.Decoded(decoded->batch.reports[0]).size(), 2u);
  EXPECT_EQ(plans.Decoded(decoded->batch.reports[0]).dropped(), 0u);
  // The first report is: query 9, no names, two rows, no drops, no payload.
  // Claim 2^41 rows.
  const std::vector<uint8_t> first = {9, 0, 2 << 1, 0, 0};
  const auto at = std::search(encoded.begin(), encoded.end(), first.begin(), first.end());
  ASSERT_NE(at, encoded.end());
  std::vector<uint8_t> rows;
  PutVarint64(&rows, uint64_t{1} << 42);
  encoded.erase(at + 2);
  encoded.insert(at + 2, rows.begin(), rows.end());
  decoded = DecodeControlMessage(encoded, plans.lookup());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->batch.reports.size(), 2u);
  const ResultSet empties = plans.Decoded(decoded->batch.reports[0]);
  EXPECT_EQ(empties.size(), encoded.size());
  EXPECT_EQ(decoded->batch.reports[0].rows, encoded.size());
  EXPECT_EQ(empties.size() + empties.dropped(), uint64_t{1} << 41);
  EXPECT_EQ(Rendered(plans.Decoded(decoded->batch.reports[1])),
            (std::vector<std::string>{"(x.v=1)"}));
  EXPECT_TRUE(DecodeControlMessage(encoded).ok());
}

// True if `wire` is exactly one `names, set` slice.
bool OneSlice(const std::vector<uint8_t>& wire) {
  std::vector<std::string> names;
  SetFrame frame;
  size_t pos = 0;
  return GetStringList(wire.data(), wire.size(), &pos, &names) &&
         SetFrame::Get(wire.data(), wire.size(), &pos, &frame) && pos == wire.size();
}

TEST(ProtocolTest, DecodedReportKeepsItsReceivedBytes) {
  // A decoded report carries its `names, set` bytes exactly as they arrived,
  // one slice that decodes into the rows sent.
  ReportBatch batch;
  batch.reports.push_back(
      Report(7, SumByHost(),
             {Tuple{{"incr.host", Value("C")}, {"incr.delta", Value(int64_t{3})}},
              Tuple{{"incr.host", Value("D")}, {"incr.delta", Value(int64_t{4})}}}));
  batch.reports.push_back(Report(9, ResultPlan{}, {Tuple{{"x.v", Value(int64_t{1})}}}));
  std::vector<size_t> report_bytes;
  const std::vector<uint8_t> encoded = EncodeReportBatch(batch, &report_bytes);
  PlanLookup plans;
  Result<ControlMessage> decoded = DecodeControlMessage(encoded, plans.lookup());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->batch.reports.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const ReceivedReport& r = decoded->batch.reports[i];
    // The report's bytes less its one-byte query id.
    ASSERT_EQ(r.wire.size(), report_bytes[i] - 1);
    EXPECT_NE(std::search(encoded.begin(), encoded.end(), r.wire.begin(), r.wire.end()),
              encoded.end());
    ASSERT_TRUE(OneSlice(r.wire));
    EXPECT_EQ(r.rows, batch.reports[i].results.size());
    EXPECT_EQ(Rendered(plans.Decoded(r)), Rendered(batch.reports[i].results));
  }
  // Decoding without a lookup keeps nothing.
  Result<ControlMessage> skipped = DecodeControlMessage(encoded);
  ASSERT_TRUE(skipped.ok());
  EXPECT_TRUE(skipped->batch.reports.empty());
}

TEST(ProtocolTest, CappedReportKeepsTheRowsItDecoded) {
  // A report whose rows of no columns the frame capped keeps bytes that
  // decode to what the frame kept: the capped row count and the larger drop
  // count.
  ReportBatch batch;
  std::vector<Tuple> empties(5000);
  batch.reports.push_back(Report(9, ResultPlan{}, empties));
  const std::vector<uint8_t> encoded = EncodeReportBatch(batch);
  PlanLookup plans;
  Result<ControlMessage> decoded = DecodeControlMessage(encoded, plans.lookup());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->batch.reports.size(), 1u);
  const ReceivedReport& r = decoded->batch.reports[0];
  ASSERT_TRUE(OneSlice(r.wire));
  const ResultSet again = plans.Decoded(r);
  ASSERT_LT(again.size(), 5000u);
  EXPECT_EQ(again.size(), r.rows);
  EXPECT_EQ(again.size() + again.dropped(), 5000u);
}

TEST(ProtocolTest, DecodeInternsAtMostTheNameTable) {
  // A streaming report interns each name-table entry once, however many rows
  // repeat it, and only when its receiver merges it; an aggregated report
  // matches names against its plan and interns none. The frame's names are
  // rewritten after encoding so the decoder is the first to see them.
  ReportBatch batch;
  AgentReport streamed{9, ResultSet(ResultPlan{})};
  for (int i = 0; i < 50; ++i) {
    streamed.results.AddInput(
        Tuple{{"protocol.test.seen.a", Value(int64_t{i})}, {"protocol.test.seen.b", Value("v")}});
  }
  batch.reports.push_back(std::move(streamed));
  batch.reports.push_back(
      Report(7, SumByHost(), {Tuple{{"incr.host", Value("C")}, {"incr.delta", Value(int64_t{1})}}}));
  std::vector<uint8_t> encoded = EncodeReportBatch(batch);
  const std::string seen = "seen";
  size_t rewritten = 0;
  for (auto it = encoded.begin();
       (it = std::search(it, encoded.end(), seen.begin(), seen.end())) != encoded.end(); ++it) {
    std::copy_n("new!", 4, it);
    ++rewritten;
  }
  ASSERT_EQ(rewritten, 2u);  // Once per name, not once per row.

  PlanLookup plans;
  const size_t before = SymbolTable::Global().size();
  Result<ControlMessage> decoded = DecodeControlMessage(encoded, plans.lookup());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(SymbolTable::Global().size(), before);
  ASSERT_EQ(decoded->batch.reports.size(), 2u);
  const ResultSet streamed_back = plans.Decoded(decoded->batch.reports[0]);
  const ResultSet summed_back = plans.Decoded(decoded->batch.reports[1]);
  EXPECT_EQ(SymbolTable::Global().size(), before + 2);
  EXPECT_EQ(streamed_back.size(), 50u);
  EXPECT_EQ(summed_back.size(), 1u);
  EXPECT_EQ(streamed_back.Finalize()[0].Get("protocol.test.new!.a").int_value(), 0);
}

TEST(ProtocolTest, EmptyPayloadRejected) {
  EXPECT_FALSE(DecodeControlMessage({}).ok());
}

TEST(ProtocolTest, UnknownTypeRejected) {
  EXPECT_FALSE(DecodeControlMessage({99}).ok());
}

TEST(ProtocolTest, UnassignedReportTypesRejected) {
  // 0x03 and 0x06 carry nothing: reports and heartbeats travel only in kBatch.
  // Follow each type byte with a well-formed batch body so only the type can
  // be at fault.
  ReportBatch batch;
  batch.host = "C";
  batch.process_name = "DataNode";
  std::vector<uint8_t> frame = EncodeReportBatch(batch);
  ASSERT_TRUE(DecodeControlMessage(frame).ok());
  for (uint8_t type : {uint8_t{0x03}, uint8_t{0x06}}) {
    frame[0] = type;
    EXPECT_FALSE(DecodeControlMessage(frame).ok()) << "type=" << int{type};
    EXPECT_FALSE(DecodeControlMessage({type}).ok()) << "type=" << int{type};
  }
}

TEST(ProtocolTest, FuzzDecodeNeverCrashes) {
  Rng rng(2024);
  PlanLookup plans;
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<uint8_t> junk(rng.NextBelow(64));
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    if (!junk.empty()) {
      static constexpr uint8_t kTypes[] = {1, 2, 4, 5, 7};  // Assigned type bytes.
      junk[0] = kTypes[rng.NextBelow(std::size(kTypes))];
    }
    DecodeControlMessage(junk);  // Must not crash.
    DecodeControlMessage(junk, plans.lookup());
  }
  // Mutations of a valid two-report frame reach deep into the name tables
  // and rows, decoded against both plans and skipped.
  ReportBatch batch;
  batch.host = "C";
  batch.process_name = "p";
  batch.reports.push_back(
      Report(7, SumByHost(), {Tuple{{"incr.host", Value("C")}, {"incr.delta", Value(int64_t{4})}},
                              Tuple{{"incr.host", Value("D")}, {"incr.delta", Value(2.5)}}}));
  batch.reports.push_back(Report(9, ResultPlan{}, {Tuple{{"x.v", Value("s")}}}));
  const std::vector<uint8_t> valid = EncodeReportBatch(batch);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> mutated = valid;
    for (uint64_t flips = 1 + rng.NextBelow(3); flips > 0; --flips) {
      mutated[rng.NextBelow(mutated.size())] = static_cast<uint8_t>(rng.NextBelow(256));
    }
    mutated[0] = 0x07;
    DecodeControlMessage(mutated);
    DecodeControlMessage(mutated, plans.lookup());
  }
}

}  // namespace
}  // namespace pivot
