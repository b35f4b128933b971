// End-to-end control-plane integration: frontend -> bus -> agents -> woven
// tracepoints -> emitted tuples -> interval reports -> merged results.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/agent/agent.h"
#include "src/agent/frontend.h"
#include "src/agent/protocol.h"
#include "src/bus/message_bus.h"
#include "src/core/symbol.h"
#include "src/core/wire.h"
#include "src/telemetry/metrics.h"
#include "tests/test_util.h"

namespace pivot {
namespace {

TracepointDef Def(const std::string& name, std::vector<std::string> exports) {
  TracepointDef def;
  def.name = name;
  def.exports = std::move(exports);
  return def;
}

// One "process": its own tracepoint registry + PT agent wired as the sink.
struct MiniProcess {
  TracepointRegistry registry;
  ProcessRuntime runtime;
  std::unique_ptr<PTAgent> agent;

  MiniProcess(MessageBus* bus, ManualClock* clock, std::string host, std::string name) {
    runtime.info.host = std::move(host);
    runtime.info.process_name = std::move(name);
    runtime.info.process_id = 7;
    runtime.now_micros = [clock] { return clock->now; };
    agent = std::make_unique<PTAgent>(bus, &registry, runtime.info);
    runtime.sink = agent.get();
  }

  Tracepoint* Define(const std::string& name, std::vector<std::string> exports) {
    auto tp = registry.Define(Def(name, std::move(exports)));
    EXPECT_TRUE(tp.ok());
    return *tp;
  }
};

class FrontendTest : public ::testing::Test {
 protected:
  FrontendTest()
      : client_(&bus_, &clock_, "A", "FSread4m"),
        datanode_b_(&bus_, &clock_, "B", "DataNode"),
        datanode_c_(&bus_, &clock_, "C", "DataNode"),
        frontend_(&bus_, &schema_) {
    // Schema registry holds all definitions for query validation.
    EXPECT_TRUE(schema_.Define(Def("ClientProtocols", {"procName"})).ok());
    EXPECT_TRUE(schema_.Define(Def("DataNodeMetrics.incrBytesRead", {"delta"})).ok());

    tp_client_ = client_.Define("ClientProtocols", {"procName"});
    tp_incr_b_ = datanode_b_.Define("DataNodeMetrics.incrBytesRead", {"delta"});
    tp_incr_c_ = datanode_c_.Define("DataNodeMetrics.incrBytesRead", {"delta"});
  }

  // Simulates one request: ClientProtocols at the client, then reads at the
  // given DataNodes; baggage crosses "process boundaries" through the wire
  // format exactly as an RPC layer would carry it.
  void RunRequest(const std::vector<std::pair<MiniProcess*, int64_t>>& reads) {
    ExecutionContext ctx(&client_.runtime);
    tp_client_->Invoke(&ctx, {{"procName", Value(client_.runtime.info.process_name)}});
    std::vector<uint8_t> wire = ctx.baggage().Serialize();
    for (auto& [proc, delta] : reads) {
      ExecutionContext server_ctx(&proc->runtime);
      Result<Baggage> baggage = Baggage::Deserialize(wire);
      ASSERT_TRUE(baggage.ok());
      server_ctx.set_baggage(std::move(baggage).value());
      Tracepoint* tp = proc == &datanode_b_ ? tp_incr_b_ : tp_incr_c_;
      tp->Invoke(&server_ctx, {{"delta", Value(delta)}});
      wire = server_ctx.baggage().Serialize();
    }
  }

  void FlushAll() {
    clock_.Tick(kFlushInterval);
    client_.agent->Flush(clock_.now);
    datanode_b_.agent->Flush(clock_.now);
    datanode_c_.agent->Flush(clock_.now);
  }

  static constexpr int64_t kFlushInterval = 1'000'000;

  ManualClock clock_;
  MessageBus bus_;
  TracepointRegistry schema_;
  MiniProcess client_;
  MiniProcess datanode_b_;
  MiniProcess datanode_c_;
  Frontend frontend_;
  Tracepoint* tp_client_;
  Tracepoint* tp_incr_b_;
  Tracepoint* tp_incr_c_;
};

TEST_F(FrontendTest, Q1StyleLocalAggregation) {
  Result<uint64_t> q = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead GroupBy incr.host "
      "Select incr.host, SUM(incr.delta)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  RunRequest({{&datanode_b_, 100}, {&datanode_c_, 50}});
  RunRequest({{&datanode_b_, 200}});
  FlushAll();

  EXPECT_EQ(CanonicalTuples(frontend_.Results(*q)),
            (std::vector<std::string>{"(incr.host=B, SUM(incr.delta)=300)",
                                      "(incr.host=C, SUM(incr.delta)=50)"}));
}

// Results() rows are the final aggregator's: group fields first, then the
// aggregates, whatever order Select lists them in.
TEST_F(FrontendTest, ResultColumnsAreGroupFieldsThenAggregates) {
  Result<uint64_t> q = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead GroupBy incr.host "
      "Select SUM(incr.delta), incr.host");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  RunRequest({{&datanode_b_, 100}, {&datanode_c_, 50}});
  FlushAll();

  EXPECT_EQ(CanonicalTuples(frontend_.Results(*q)),
            (std::vector<std::string>{"(incr.host=B, SUM(incr.delta)=100)",
                                      "(incr.host=C, SUM(incr.delta)=50)"}));
}

TEST_F(FrontendTest, Q2StyleHappenedBeforeJoinAcrossProcesses) {
  Result<uint64_t> q = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead "
      "Join cl In First(ClientProtocols) On cl -> incr "
      "GroupBy cl.procName Select cl.procName, SUM(incr.delta)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  RunRequest({{&datanode_b_, 100}, {&datanode_c_, 50}});
  FlushAll();

  EXPECT_EQ(CanonicalTuples(frontend_.Results(*q)),
            (std::vector<std::string>{"(cl.procName=FSread4m, SUM(incr.delta)=150)"}));
}

TEST_F(FrontendTest, SeriesSeparatesIntervals) {
  Result<uint64_t> q = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead Select SUM(incr.delta)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  RunRequest({{&datanode_b_, 10}});
  FlushAll();
  RunRequest({{&datanode_b_, 20}});
  FlushAll();

  auto series = frontend_.Series(*q);
  ASSERT_EQ(series.size(), 2u);
  auto it = series.begin();
  EXPECT_EQ(it->second[0].Get("SUM(incr.delta)").int_value(), 10);
  ++it;
  EXPECT_EQ(it->second[0].Get("SUM(incr.delta)").int_value(), 20);
  // Totals merge the intervals.
  EXPECT_EQ(frontend_.Results(*q)[0].Get("SUM(incr.delta)").int_value(), 30);
}

TEST_F(FrontendTest, StreamingQueryDeliversRows) {
  Result<uint64_t> q = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead Select incr.delta");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  RunRequest({{&datanode_b_, 5}, {&datanode_b_, 6}});
  FlushAll();
  EXPECT_EQ(CanonicalTuples(frontend_.Results(*q)),
            (std::vector<std::string>{"(incr.delta=5)", "(incr.delta=6)"}));
}

TEST_F(FrontendTest, QueryWithoutSelectReportsWholeTuples) {
  // No Select projects everything observed: every export and default of the
  // source, never a row of no columns, however often the source fires.
  Result<uint64_t> q = frontend_.Install("From incr In DataNodeMetrics.incrBytesRead");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  telemetry::Counter& decode_errors = telemetry::Metrics().GetCounter("frontend.decode_errors");
  const uint64_t errors_before = decode_errors.value();
  constexpr int kFires = 300;
  for (int i = 0; i < kFires; ++i) {
    RunRequest({{&datanode_b_, i}});
  }
  FlushAll();
  EXPECT_EQ(decode_errors.value(), errors_before);
  const std::vector<Tuple> rows = frontend_.Results(*q);
  ASSERT_EQ(rows.size(), static_cast<size_t>(kFires));
  for (int i = 0; i < kFires; ++i) {
    EXPECT_EQ(rows[i].Get("incr.delta").int_value(), i);
    EXPECT_EQ(rows[i].Get("incr.host").string_value(), "B");
  }
}

TEST_F(FrontendTest, UninstallStopsCollection) {
  Result<uint64_t> q = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead Select COUNT");
  ASSERT_TRUE(q.ok());
  RunRequest({{&datanode_b_, 1}});
  FlushAll();
  EXPECT_EQ(frontend_.Results(*q)[0].Get("COUNT").int_value(), 1);

  ASSERT_TRUE(frontend_.Uninstall(*q).ok());
  EXPECT_FALSE(tp_incr_b_->enabled());
  RunRequest({{&datanode_b_, 1}});
  FlushAll();
  // Results frozen at the pre-uninstall state.
  EXPECT_EQ(frontend_.Results(*q)[0].Get("COUNT").int_value(), 1);
}

uint64_t CommandsPublished(const MessageBus& bus) {
  for (const TopicStats& topic : bus.TopicSnapshot()) {
    if (topic.topic == kCommandTopic) {
      return topic.published;
    }
  }
  return 0;
}

TEST_F(FrontendTest, UninstallTwiceIsOkAndChangesNothing) {
  frontend_.set_now_micros([this] { return clock_.now; });
  Result<uint64_t> q = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead Select COUNT");
  ASSERT_TRUE(q.ok());
  clock_.now = 100;
  ASSERT_TRUE(frontend_.Uninstall(*q).ok());
  const uint64_t commands = CommandsPublished(bus_);

  clock_.now = 200;
  EXPECT_TRUE(frontend_.Uninstall(*q).ok());
  EXPECT_EQ(CommandsPublished(bus_), commands);  // No second unweave.
  std::vector<Frontend::QueryStatus> statuses = frontend_.QueryStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_FALSE(statuses[0].active);
  EXPECT_EQ(statuses[0].uninstalled_micros, 100);
}

TEST(FrontendClockTest, DefaultClocksStampInstallBeforeFirstAck) {
  // With no clock installed, the frontend's lifecycle stamps and an agent's
  // weave-ack stamps (from its ProcessRuntime) come from one clock, so they
  // order as the events did.
  MessageBus bus;
  TracepointRegistry schema;
  ASSERT_TRUE(schema.Define(Def("X", {"v"})).ok());
  Frontend frontend(&bus, &schema);
  TracepointRegistry registry;
  ProcessRuntime runtime;
  runtime.info = {"A", "proc", 1};
  PTAgent agent(&bus, &registry, runtime.info);
  agent.set_runtime(&runtime);
  runtime.sink = &agent;

  Result<uint64_t> q = frontend.Install("From e In X Select COUNT");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(frontend.Uninstall(*q).ok());
  std::vector<Frontend::QueryStatus> statuses = frontend.QueryStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  const Frontend::QueryStatus& s = statuses[0];
  ASSERT_GE(s.first_ack_micros, 0);
  EXPECT_LE(s.installed_micros, s.first_ack_micros);
  EXPECT_LE(s.first_ack_micros, s.uninstalled_micros);
}

TEST_F(FrontendTest, QueriesImposeNoOverheadWhenUninstalled) {
  // "Pivot Tracing queries impose truly no overhead when disabled" — the
  // tracepoint fast path stays disabled until a weave arrives.
  EXPECT_FALSE(tp_client_->enabled());
  EXPECT_FALSE(tp_incr_b_->enabled());
  RunRequest({{&datanode_b_, 100}});
  EXPECT_EQ(client_.agent->emitted_tuples(), 0u);
  EXPECT_EQ(datanode_b_.agent->emitted_tuples(), 0u);
}

TEST_F(FrontendTest, TwoQueriesRunIndependently) {
  Result<uint64_t> q1 = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead Select COUNT");
  Result<uint64_t> q2 = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead Select SUM(incr.delta)");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  RunRequest({{&datanode_b_, 10}, {&datanode_c_, 20}});
  FlushAll();
  EXPECT_EQ(frontend_.Results(*q1)[0].Get("COUNT").int_value(), 2);
  EXPECT_EQ(frontend_.Results(*q2)[0].Get("SUM(incr.delta)").int_value(), 30);

  ASSERT_TRUE(frontend_.Uninstall(*q1).ok());
  RunRequest({{&datanode_b_, 5}});
  FlushAll();
  EXPECT_EQ(frontend_.Results(*q2)[0].Get("SUM(incr.delta)").int_value(), 35);
}

TEST_F(FrontendTest, PartialAggregationReducesReportedTuples) {
  // §4 "Tuple Aggregation": many emitted tuples per interval collapse into
  // one state tuple per (process, group).
  Result<uint64_t> q = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead Select SUM(incr.delta)");
  ASSERT_TRUE(q.ok());
  for (int i = 0; i < 50; ++i) {
    RunRequest({{&datanode_b_, 1}});
  }
  FlushAll();
  EXPECT_EQ(datanode_b_.agent->emitted_tuples(), 50u);
  EXPECT_EQ(datanode_b_.agent->reported_tuples(), 1u);
  EXPECT_EQ(frontend_.Results(*q)[0].Get("SUM(incr.delta)").int_value(), 50);
}

TEST_F(FrontendTest, UndecodableReportFramesAreCounted) {
  telemetry::Counter& decode_errors = telemetry::Metrics().GetCounter("frontend.decode_errors");
  const uint64_t before = decode_errors.value();
  bus_.Publish(BusMessage{kReportTopic, {0xDE, 0xAD, 0xBE, 0xEF}});
  bus_.Publish(BusMessage{kReportTopic, {}});
  EXPECT_EQ(decode_errors.value() - before, 2u);
  EXPECT_EQ(frontend_.reports_received(), 0u);
}

// A report whose group key is spelled with an overlong varint (an int, or a
// string's length) is refused whole: it counts in frontend.decode_errors and
// the query's total keeps what it had.
TEST_F(FrontendTest, DecodeRejectsOverlongKeyVarint) {
  struct Case {
    const char* query;
    const char* column;
    Value key;
    std::vector<uint8_t> canonical;
    std::vector<uint8_t> overlong;
  };
  const Case cases[] = {
      {"From incr In DataNodeMetrics.incrBytesRead GroupBy incr.delta Select incr.delta, COUNT",
       "incr.delta", Value(int64_t{5}), {1, 10}, {1, 0x8A, 0x00}},
      {"From incr In DataNodeMetrics.incrBytesRead GroupBy incr.host Select incr.host, COUNT",
       "incr.host", Value("ab"), {3, 2, 'a', 'b'}, {3, 0x82, 0x00, 'a', 'b'}},
  };
  telemetry::Counter& decode_errors = telemetry::Metrics().GetCounter("frontend.decode_errors");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.column);
    Result<uint64_t> q = frontend_.Install(c.query);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ReportBatch batch;
    batch.host = "B";
    batch.process_name = "DataNode";
    batch.timestamp_micros = 5'000'000;
    AgentReport report{*q, ResultSet(frontend_.compiled(*q)->plan)};
    report.results.AddInput(Tuple{{c.column, c.key}});
    batch.reports.push_back(std::move(report));
    const std::vector<uint8_t> good = EncodeReportBatch(batch);
    // The batch ends with the report's one row, (key, COUNT int 1), then
    // no heartbeats; the byte before the row is the payload's length.
    std::vector<uint8_t> row = c.canonical;
    row.insert(row.end(), {1, 2, 0});
    ASSERT_TRUE(std::equal(row.begin(), row.end(), good.end() - row.size()));
    bus_.Publish(BusMessage{kReportTopic, good});
    const std::vector<std::string> total = CanonicalTuples(frontend_.Results(*q));
    ASSERT_EQ(total.size(), 1u);

    std::vector<uint8_t> bad(good.begin(), good.end() - row.size());
    ASSERT_EQ(bad.back(), row.size() - 1);
    bad.back() += c.overlong.size() - c.canonical.size();
    bad.insert(bad.end(), c.overlong.begin(), c.overlong.end());
    bad.insert(bad.end(), {1, 2, 0});
    const uint64_t before = decode_errors.value();
    bus_.Publish(BusMessage{kReportTopic, bad});
    EXPECT_EQ(decode_errors.value() - before, 1u);
    EXPECT_EQ(CanonicalTuples(frontend_.Results(*q)), total);
  }
}

// A frame whose last report is bad is refused whole, the good reports before
// it included: the frame is checked before any report merges. Query A's
// report is good; query B's last row carries the fault.
TEST_F(FrontendTest, BadLastReportLeavesTheWholeFrameUnmerged) {
  Result<uint64_t> a = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead GroupBy incr.host Select incr.host, COUNT");
  Result<uint64_t> b = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead GroupBy incr.delta Select incr.delta, COUNT");
  ASSERT_TRUE(a.ok() && b.ok());
  auto frame = [&](int64_t ts) {
    ReportBatch batch;
    batch.host = "B";
    batch.process_name = "DataNode";
    batch.timestamp_micros = ts;
    AgentReport& ra = batch.reports.emplace_back(*a, ResultSet(frontend_.compiled(*a)->plan));
    ra.results.AddInput(Tuple{{"incr.host", Value("B")}});
    ra.results.AddInput(Tuple{{"incr.host", Value("C")}});
    AgentReport& rb = batch.reports.emplace_back(*b, ResultSet(frontend_.compiled(*b)->plan));
    rb.results.AddInput(Tuple{{"incr.delta", Value(int64_t{5})}});
    rb.results.AddInput(Tuple{{"incr.delta", Value(int64_t{6})}});
    return EncodeReportBatch(batch);
  };
  bus_.Publish(BusMessage{kReportTopic, frame(5'000'000)});
  const std::vector<std::string> results = CanonicalTuples(frontend_.Results(*a));
  ASSERT_EQ(results.size(), 2u);
  const size_t series = frontend_.Series(*a).size();
  ASSERT_EQ(series, 1u);
  const uint64_t reports = frontend_.reports_received();

  // The good frame ends with B's last row, (int 6, COUNT int 1), then no
  // heartbeats; B's payload is two such rows, its length the byte before.
  const std::vector<uint8_t> good = frame(6'000'000);
  const std::vector<uint8_t> last_row = {1, 12, 1, 2};
  ASSERT_TRUE(std::equal(last_row.begin(), last_row.end(), good.end() - 5));
  ASSERT_EQ(good[good.size() - 10], 8u);
  struct Case {
    const char* fault;
    std::vector<uint8_t> last_row;
  };
  const Case cases[] = {
      {"overlong key varint", {1, 0x8C, 0x00, 1, 2}},
      {"non-int COUNT", {1, 12, 3, 1, '1'}},
      {"truncated payload", {1, 12, 1}},
  };
  telemetry::Counter& decode_errors = telemetry::Metrics().GetCounter("frontend.decode_errors");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.fault);
    std::vector<uint8_t> bad(good.begin(), good.end() - 5);
    bad[bad.size() - 5] = static_cast<uint8_t>(4 + c.last_row.size());
    bad.insert(bad.end(), c.last_row.begin(), c.last_row.end());
    bad.push_back(0);
    const uint64_t before = decode_errors.value();
    bus_.Publish(BusMessage{kReportTopic, bad});
    EXPECT_EQ(decode_errors.value() - before, 1u);
    EXPECT_EQ(CanonicalTuples(frontend_.Results(*a)), results);
    EXPECT_EQ(frontend_.Series(*a).size(), series);
    EXPECT_EQ(frontend_.Results(*b).size(), 2u);
    EXPECT_EQ(frontend_.reports_received(), reports);
  }
  // The good frame itself merges.
  bus_.Publish(BusMessage{kReportTopic, good});
  EXPECT_EQ(frontend_.Series(*a).size(), 2u);
  EXPECT_EQ(frontend_.reports_received(), reports + 2);
}

// One kBatch frame holding one report of `query`: `rows` rows of an int per
// name. Built by hand, so the test interns none of the names.
std::vector<uint8_t> StreamingFrame(uint64_t query, const std::vector<std::string>& names,
                                    uint64_t rows) {
  std::vector<uint8_t> payload;
  for (uint64_t r = 0; r < rows * names.size(); ++r) {
    PutValue(&payload, Value(int64_t{1}));
  }
  std::vector<uint8_t> out{static_cast<uint8_t>(ControlMessageType::kBatch)};
  PutString(&out, "B");
  PutString(&out, "DataNode");
  PutVarintSigned64(&out, 5'000'000);
  PutVarint64(&out, 1);
  PutVarint64(&out, query);
  PutStringList(&out, names);
  SetFrame{rows, false, 0, payload.data(), payload.size()}.Put(&out);
  PutVarint64(&out, 0);
  return out;
}

// Reports come from outside the process and the symbol table is never freed.
// Only a streaming query's first rows may name columns not yet interned, and
// only in a frame that is accepted: 10k frames of fresh names intern at most
// one report's names, and the rest are decode errors.
TEST_F(FrontendTest, StreamingReportNamesCannotGrowTheSymbolTable) {
  Result<uint64_t> q =
      frontend_.Install("From incr In DataNodeMetrics.incrBytesRead Select incr.delta");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  telemetry::Counter& decode_errors = telemetry::Metrics().GetCounter("frontend.decode_errors");
  const uint64_t errors_before = decode_errors.value();
  const size_t symbols_before = SymbolTable::Global().size();

  // A frame that fails after its report decodes (here, a heartbeat count
  // with no heartbeat) interns nothing.
  std::vector<uint8_t> truncated = StreamingFrame(*q, {"hostile.truncated"}, 1);
  truncated.back() = 1;
  bus_.Publish(BusMessage{kReportTopic, truncated});
  EXPECT_EQ(decode_errors.value() - errors_before, 1u);
  EXPECT_EQ(SymbolTable::Global().size(), symbols_before);
  // Nor does a report without rows.
  bus_.Publish(BusMessage{kReportTopic, StreamingFrame(*q, {"hostile.no_rows"}, 0)});
  EXPECT_EQ(decode_errors.value() - errors_before, 1u);
  EXPECT_EQ(SymbolTable::Global().size(), symbols_before);

  constexpr uint64_t kFrames = 10'000;
  for (uint64_t i = 0; i < kFrames; ++i) {
    bus_.Publish(BusMessage{kReportTopic, StreamingFrame(*q, {"hostile." + std::to_string(i)}, 1)});
  }
  EXPECT_EQ(SymbolTable::Global().size() - symbols_before, 1u);
  EXPECT_EQ(decode_errors.value() - errors_before, 1 + kFrames - 1);
  EXPECT_EQ(frontend_.Results(*q).size(), 1u);

  // Reports naming interned columns still merge.
  bus_.Publish(BusMessage{kReportTopic, StreamingFrame(*q, {"hostile.0"}, 2)});
  bus_.Publish(BusMessage{kReportTopic, StreamingFrame(*q, {"incr.delta"}, 1)});
  EXPECT_EQ(decode_errors.value() - errors_before, kFrames);
  EXPECT_EQ(frontend_.Results(*q).size(), 4u);
}

TEST_F(FrontendTest, ReportNotMatchingItsPlanIsCountedAndDropped) {
  // A report whose name table is not the query's plan (here SUM state for a
  // COUNT query) is a decode error, and nothing of its frame is merged.
  Result<uint64_t> counted =
      frontend_.Install("From incr In DataNodeMetrics.incrBytesRead Select COUNT");
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  ResultPlan wrong;
  wrong.aggs = {{AggFn::kSum, "incr.delta", "SUM(incr.delta)", false}};
  AgentReport report{*counted, ResultSet(wrong)};
  report.results.AddInput(Tuple{{"incr.delta", Value(int64_t{1})}});
  ReportBatch batch;
  batch.host = "B";
  batch.process_name = "DataNode";
  batch.reports.push_back(std::move(report));
  telemetry::Counter& decode_errors = telemetry::Metrics().GetCounter("frontend.decode_errors");
  const uint64_t before = decode_errors.value();
  bus_.Publish(BusMessage{kReportTopic, EncodeReportBatch(batch)});
  EXPECT_EQ(decode_errors.value() - before, 1u);
  EXPECT_EQ(frontend_.reports_received(), 0u);
  EXPECT_TRUE(frontend_.Results(*counted).empty());
}

TEST_F(FrontendTest, ReportsForUnknownOrUninstalledQueriesAreCountedAndDropped) {
  Result<uint64_t> q =
      frontend_.Install("From incr In DataNodeMetrics.incrBytesRead Select COUNT");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  RunRequest({{&datanode_b_, 10}});
  FlushAll();
  ASSERT_TRUE(frontend_.Uninstall(*q).ok());
  const std::vector<std::string> results = CanonicalTuples(frontend_.Results(*q));
  ASSERT_EQ(results, (std::vector<std::string>{"(COUNT=1)"}));
  const uint64_t reports = frontend_.reports_received();

  // One report for a query id nobody installed, one for the uninstalled
  // query, in one well-formed frame.
  ReportBatch batch;
  batch.host = "B";
  batch.process_name = "DataNode";
  batch.timestamp_micros = 9'000'000;
  for (uint64_t id : {uint64_t{999}, *q}) {
    AgentReport& report =
        batch.reports.emplace_back(AgentReport{id, ResultSet(frontend_.compiled(*q)->plan)});
    report.results.AddInput(Tuple{});
  }
  telemetry::Counter& dropped = telemetry::Metrics().GetCounter("frontend.reports_dropped");
  telemetry::Counter& decode_errors = telemetry::Metrics().GetCounter("frontend.decode_errors");
  const uint64_t dropped_before = dropped.value();
  const uint64_t decode_errors_before = decode_errors.value();
  bus_.Publish(BusMessage{kReportTopic, EncodeReportBatch(batch)});

  EXPECT_EQ(dropped.value() - dropped_before, 2u);
  EXPECT_EQ(decode_errors.value(), decode_errors_before);
  EXPECT_EQ(CanonicalTuples(frontend_.Results(*q)), results);
  EXPECT_EQ(frontend_.reports_received(), reports);
}

TEST_F(FrontendTest, StatusJsonEscapesControlBytesInAgentNames) {
  // Host and process names come off the bus: a weave ack from host "h\r\x01"
  // must leave no raw control byte in the JSON (RFC 8259).
  Result<uint64_t> q =
      frontend_.Install("From incr In DataNodeMetrics.incrBytesRead Select COUNT");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  WeaveAck ack;
  ack.query_id = *q;
  ack.host = "h\r\x01";
  ack.process_name = "p";
  bus_.Publish(BusMessage{kReportTopic, EncodeWeaveAck(ack)});

  const std::string json = frontend_.StatusReportJson();
  EXPECT_EQ(std::count_if(json.begin(), json.end(),
                          [](char c) { return static_cast<unsigned char>(c) < 0x20; }),
            0)
      << json;
  EXPECT_NE(json.find("\"h\\u000d\\u0001/p\":"), std::string::npos) << json;
}

TEST_F(FrontendTest, InstallRejectsBadQueries) {
  EXPECT_FALSE(frontend_.Install("not a query").ok());
  EXPECT_FALSE(frontend_.Install("From e In NoSuchTracepoint Select e.host").ok());
  EXPECT_FALSE(frontend_.Uninstall(999).ok());
}

TEST_F(FrontendTest, NamedQueryRegistration) {
  ASSERT_TRUE(frontend_
                  .RegisterNamedQuery("QLat",
                                      "From incr In DataNodeMetrics.incrBytesRead "
                                      "Select incr.delta")
                  .ok());
  // Duplicate name rejected.
  EXPECT_FALSE(frontend_.RegisterNamedQuery("QLat", "From e In ClientProtocols").ok());
  // Unparsable rejected.
  EXPECT_FALSE(frontend_.RegisterNamedQuery("Bad", "garbage").ok());
}

TEST_F(FrontendTest, TrimSeriesDropsOldIntervalsOnly) {
  Result<uint64_t> q = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead Select SUM(incr.delta)");
  ASSERT_TRUE(q.ok());
  RunRequest({{&datanode_b_, 10}});
  FlushAll();
  int64_t first_interval = clock_.now;
  RunRequest({{&datanode_b_, 20}});
  FlushAll();

  ASSERT_EQ(frontend_.Series(*q).size(), 2u);
  frontend_.TrimSeriesBefore(*q, first_interval + 1);
  auto series = frontend_.Series(*q);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series.begin()->second[0].Get("SUM(incr.delta)").int_value(), 20);
  // Cumulative totals are untouched.
  EXPECT_EQ(frontend_.Results(*q)[0].Get("SUM(incr.delta)").int_value(), 30);

  // query_id 0 trims everything.
  frontend_.TrimSeriesBefore(0, clock_.now + 1);
  EXPECT_TRUE(frontend_.Series(*q).empty());
}

TEST_F(FrontendTest, InstallGateRejectsWarningsUnlessForced) {
  // Division by a literal zero is PT110 — warning severity: the install gate
  // refuses it by default but --force overrides (errors never override).
  const std::string text =
      "From incr In DataNodeMetrics.incrBytesRead Select incr.delta / 0";
  Result<uint64_t> rejected = frontend_.Install(text);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().ToString().find("PT110"), std::string::npos)
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().ToString().find("force"), std::string::npos);

  InstallOptions force;
  force.force = true;
  Result<uint64_t> accepted = frontend_.Install(text, force);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  // The forced query is live end to end.
  RunRequest({{&datanode_b_, 10}});
  FlushAll();
  EXPECT_FALSE(frontend_.Results(*accepted).empty());
}

TEST_F(FrontendTest, EachInstallLintsOncePerTrustBoundary) {
  // The compiler is a pure lowering, so an install lints exactly once in the
  // frontend (its gate) and once in each agent that weaves (re-verify of the
  // bus bytes). A query the gate rejects never reaches the agents.
  telemetry::Counter& lints = telemetry::Metrics().GetCounter("analysis.query_lints");
  auto lints_during = [&lints](const std::function<void()>& fn) {
    uint64_t before = lints.value();
    fn();
    return lints.value() - before;
  };
  constexpr uint64_t kAgents = 3;
  const std::string clean =
      "From incr In DataNodeMetrics.incrBytesRead GroupBy incr.host "
      "Select incr.host, SUM(incr.delta)";
  EXPECT_EQ(lints_during([&] { EXPECT_TRUE(frontend_.Install(clean).ok()); }), 1 + kAgents);
  EXPECT_EQ(lints_during([&] { EXPECT_TRUE(frontend_.InstallExplain(clean).ok()); }),
            1 + kAgents);
  EXPECT_EQ(lints_during([&] {
              EXPECT_FALSE(
                  frontend_.Install("From incr In DataNodeMetrics.incrBytesRead "
                                    "Select incr.delta / 0")
                      .ok());
            }),
            1u);
  EXPECT_EQ(lints_during([&] { EXPECT_TRUE(frontend_.Lint(clean).ok()); }), 1u);
  EXPECT_EQ(lints_during([&] { EXPECT_FALSE(frontend_.Install("not a query").ok()); }), 0u);
}

TEST_F(FrontendTest, AgentsDropDuplicateWeavesBeforeLinting) {
  // A late agent's Hello replays every active weave to every agent. Only the
  // new agent lints them: the others already have both queries.
  ASSERT_TRUE(frontend_.Install("From incr In DataNodeMetrics.incrBytesRead Select COUNT").ok());
  ASSERT_TRUE(frontend_.Install("From cl In ClientProtocols Select COUNT").ok());
  telemetry::Counter& lints = telemetry::Metrics().GetCounter("analysis.query_lints");
  const uint64_t before = lints.value();
  MiniProcess late(&bus_, &clock_, "D", "DataNode");
  EXPECT_EQ(lints.value() - before, 2u);
}

TEST_F(FrontendTest, LintReportsWithoutInstalling) {
  Result<analysis::QueryLintResult> lint = frontend_.Lint(
      "From incr In DataNodeMetrics.incrBytesRead Select incr.delta / 0");
  ASSERT_TRUE(lint.ok()) << lint.status().ToString();
  EXPECT_TRUE(lint->report.Has("PT110")) << lint->report.ToString();
  EXPECT_FALSE(lint->report.has_errors());
  // Nothing woven, nothing installed.
  EXPECT_FALSE(tp_incr_b_->enabled());
  EXPECT_TRUE(datanode_b_.registry.WovenQueries().empty());
}

TEST_F(FrontendTest, AgentsRefuseTamperedWireAdvice) {
  // A weave command straight onto the bus, bypassing the frontend's install
  // gate — the advice emits to a foreign query (PT201), the sort of tampering
  // the agent-side re-verification exists to stop.
  WeaveCommand cmd;
  cmd.query_id = 41;
  cmd.advice.emplace_back("DataNodeMetrics.incrBytesRead",
                          AdviceBuilder()
                              .Observe({{"delta", "incr.delta"}})
                              .Emit(99, {"incr.delta"})
                              .Build());
  telemetry::Counter& refused = telemetry::Metrics().GetCounter("agent.weaves_refused");
  const uint64_t refused_before = refused.value();
  bus_.Publish(BusMessage{kCommandTopic, EncodeWeave(cmd)});

  for (MiniProcess* proc : {&client_, &datanode_b_, &datanode_c_}) {
    EXPECT_TRUE(proc->registry.WovenQueries().empty());
  }
  EXPECT_EQ(refused.value() - refused_before, 3u);  // One per agent.
  // Nothing fires, nothing is emitted.
  RunRequest({{&datanode_b_, 10}});
  FlushAll();
  EXPECT_EQ(datanode_b_.agent->emitted_tuples(), 0u);
  EXPECT_EQ(frontend_.reports_received(), 0u);

  // A well-formed weave on the same bus still goes through: refusal is
  // per-program, not a poisoned state.
  WeaveCommand good;
  good.query_id = 42;
  good.advice.emplace_back("DataNodeMetrics.incrBytesRead",
                           AdviceBuilder()
                               .Observe({{"delta", "incr.delta"}})
                               .Emit(42, {"incr.delta"})
                               .Build());
  bus_.Publish(BusMessage{kCommandTopic, EncodeWeave(good)});
  for (MiniProcess* proc : {&client_, &datanode_b_, &datanode_c_}) {
    EXPECT_EQ(proc->registry.WovenQueries(), std::vector<uint64_t>{42});
  }
  EXPECT_EQ(refused.value() - refused_before, 3u);
}

TEST_F(FrontendTest, AgentsRefuseEmptyAdviceWeave) {
  // Garbage that *decodes* (an advice list with an empty program) must still
  // be refused: decode success is not verification.
  WeaveCommand cmd;
  cmd.query_id = 43;
  cmd.advice.emplace_back("DataNodeMetrics.incrBytesRead", AdviceBuilder().Build());
  telemetry::Counter& refused = telemetry::Metrics().GetCounter("agent.weaves_refused");
  const uint64_t refused_before = refused.value();
  bus_.Publish(BusMessage{kCommandTopic, EncodeWeave(cmd)});
  for (MiniProcess* proc : {&client_, &datanode_b_, &datanode_c_}) {
    EXPECT_TRUE(proc->registry.WovenQueries().empty());
  }
  EXPECT_EQ(refused.value() - refused_before, 3u);  // One per agent.
}

// A Where clause at the expression depth limit weaves on every agent: the
// parser accepts exactly the trees the weave command's decoder accepts. One
// level deeper is refused at install, before anything reaches the bus.
TEST_F(FrontendTest, QueryAtTheExpressionDepthLimitIsAckedByEveryAgent) {
  auto query = [](int depth) {
    std::string where = "incr.delta";
    for (int i = 1; i < depth; ++i) {
      where += " + 0";
    }
    return "From incr In DataNodeMetrics.incrBytesRead Where " + where + " > 0 Select COUNT";
  };
  telemetry::Counter& decode_errors =
      telemetry::Metrics().GetCounter("agent.command_decode_errors");
  const uint64_t errors_before = decode_errors.value();
  Result<uint64_t> q = frontend_.Install(query(kMaxExprDepth));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(decode_errors.value(), errors_before);
  size_t acked = 0;
  for (const Frontend::QueryStatus& status : frontend_.QueryStatuses()) {
    if (status.query_id != *q) {
      continue;
    }
    for (const auto& [agent, view] : status.agents) {
      EXPECT_GE(view.ack_micros, 0) << agent;
      acked += view.ack_micros >= 0 ? 1 : 0;
    }
  }
  EXPECT_EQ(acked, 3u);
  RunRequest({{&datanode_b_, 5}, {&datanode_c_, 0}});
  FlushAll();
  EXPECT_EQ(CanonicalTuples(frontend_.Results(*q)), (std::vector<std::string>{"(COUNT=1)"}));

  Result<uint64_t> deeper = frontend_.Install(query(kMaxExprDepth + 1));
  ASSERT_FALSE(deeper.ok());
  EXPECT_EQ(deeper.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decode_errors.value(), errors_before);
}

TEST_F(FrontendTest, EmptyIntervalsPublishNothing) {
  Result<uint64_t> q = frontend_.Install(
      "From incr In DataNodeMetrics.incrBytesRead Select COUNT");
  ASSERT_TRUE(q.ok());
  FlushAll();  // Nothing happened.
  EXPECT_EQ(frontend_.reports_received(), 0u);
  EXPECT_TRUE(frontend_.Series(*q).empty());
}

}  // namespace
}  // namespace pivot
