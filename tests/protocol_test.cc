#include <gtest/gtest.h>

#include "src/agent/protocol.h"
#include "src/common/rand.h"

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

TEST(ProtocolTest, ReportRoundTrip) {
  // A lone report travels as a batch of one.
  ReportBatch batch;
  batch.host = "C";
  batch.process_name = "DataNode";
  batch.timestamp_micros = 3'000'000;
  AgentReport report;
  report.query_id = 7;
  report.tuples.push_back(Tuple{{"incr.host", Value("C")}, {"SUM(incr.delta)", Value(int64_t{12345})}});
  batch.reports = {report};

  Result<ControlMessage> decoded = DecodeControlMessage(EncodeReportBatch(batch));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->type, ControlMessageType::kBatch);
  ASSERT_EQ(decoded->batch.reports.size(), 1u);
  EXPECT_EQ(decoded->batch.host, "C");
  EXPECT_EQ(decoded->batch.timestamp_micros, 3'000'000);
  const AgentReport& r = decoded->batch.reports[0];
  EXPECT_EQ(r.query_id, 7u);
  ASSERT_EQ(r.tuples.size(), 1u);
  EXPECT_EQ(r.tuples[0].Get("SUM(incr.delta)").int_value(), 12345);
}

TEST(ProtocolTest, ReportBatchRoundTrip) {
  ReportBatch batch;
  batch.host = "C";
  batch.process_name = "DataNode";
  batch.timestamp_micros = 3'000'000;

  AgentReport r1;
  r1.query_id = 7;
  r1.tuples.push_back(Tuple{{"incr.host", Value("C")}, {"SUM(incr.delta)", Value(int64_t{12345})}});
  AgentReport r2;
  r2.query_id = 9;
  r2.tuples.push_back(Tuple{{"x.v", Value(int64_t{1})}});
  r2.tuples.push_back(Tuple{{"x.v", Value(int64_t{2})}});
  batch.reports = {r1, r2};

  AgentStats hb;
  hb.query_id = 11;
  hb.reports_suppressed = 10;
  batch.heartbeats = {hb};

  std::vector<size_t> report_bytes;
  std::vector<uint8_t> encoded = EncodeReportBatch(batch, &report_bytes);
  // The exact frame. Host, process and timestamp appear once, in the header;
  // a report is (query id, tuple count, tuples) and a heartbeat is (query id,
  // suppressed count), with nothing else per entry.
  const std::vector<uint8_t> expected = {
      0x07,                                       // kBatch.
      1, 'C',                                     // host.
      8, 'D', 'a', 't', 'a', 'N', 'o', 'd', 'e',  // process_name.
      0x80, 0x9B, 0xEE, 0x02,                     // timestamp 3'000'000 (zig-zag).
      2,                                          // Report count.
      7, 1,                                       // r1: query 7, one tuple.
      2,                                          //   Two fields.
      9, 'i', 'n', 'c', 'r', '.', 'h', 'o', 's', 't', 3, 1, 'C',
      15, 'S', 'U', 'M', '(', 'i', 'n', 'c', 'r', '.', 'd', 'e', 'l', 't', 'a', ')',
      1, 0xF2, 0xC0, 0x01,                        //   int 12345 (zig-zag).
      9, 2,                                       // r2: query 9, two tuples.
      1, 3, 'x', '.', 'v', 1, 2,                  //   {x.v: 1}.
      1, 3, 'x', '.', 'v', 1, 4,                  //   {x.v: 2}.
      1,                                          // Heartbeat count.
      11, 10,                                     // Query 11, 10 suppressed.
  };
  EXPECT_EQ(encoded, expected);
  EXPECT_EQ(report_bytes, (std::vector<size_t>{36, 16}));

  Result<ControlMessage> decoded = DecodeControlMessage(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->type, ControlMessageType::kBatch);
  const ReportBatch& b = decoded->batch;
  EXPECT_EQ(b.host, "C");
  EXPECT_EQ(b.process_name, "DataNode");
  EXPECT_EQ(b.timestamp_micros, 3'000'000);
  ASSERT_EQ(b.reports.size(), 2u);
  EXPECT_EQ(b.reports[0].query_id, 7u);
  ASSERT_EQ(b.reports[0].tuples.size(), 1u);
  EXPECT_EQ(b.reports[0].tuples[0].Get("SUM(incr.delta)").int_value(), 12345);
  EXPECT_EQ(b.reports[1].query_id, 9u);
  ASSERT_EQ(b.reports[1].tuples.size(), 2u);
  ASSERT_EQ(b.heartbeats.size(), 1u);
  EXPECT_EQ(b.heartbeats[0].query_id, 11u);
  EXPECT_EQ(b.heartbeats[0].reports_suppressed, 10u);
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
  AgentReport r;
  r.query_id = 1;
  r.tuples.push_back(Tuple{{"x.v", Value(int64_t{1})}});
  batch.reports = {r};
  std::vector<uint8_t> encoded = EncodeReportBatch(batch);
  for (size_t cut = 1; cut < encoded.size(); ++cut) {
    std::vector<uint8_t> truncated(encoded.begin(), encoded.begin() + cut);
    EXPECT_FALSE(DecodeControlMessage(truncated).ok()) << "cut=" << cut;
  }
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
  }
}

}  // namespace
}  // namespace pivot
