// Direct PTAgent behaviors: weave/unweave via bus commands, partial
// aggregation semantics, interval flush bookkeeping, robustness to malformed
// and duplicate commands.

#include <gtest/gtest.h>

#include "src/agent/agent.h"
#include "src/bus/message_bus.h"
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

class AgentTest : public ::testing::Test {
 protected:
  AgentTest() {
    runtime_.info.host = "A";
    runtime_.info.process_name = "proc";
    runtime_.now_micros = [this] { return clock_.now; };
    agent_ = std::make_unique<PTAgent>(&bus_, &registry_, runtime_.info);
    runtime_.sink = agent_.get();
    tp_ = *registry_.Define(Def("X", {"v"}));
    // Flushes arrive as kBatch frames, one per flush. Query 5 streams; the
    // others count.
    reports_sub_ = bus_.Subscribe(kReportTopic, [this](const BusMessage& msg) {
      Result<ControlMessage> decoded = DecodeControlMessage(
          msg.payload, [this](uint64_t id) { return id == 5 ? &streaming_ : &counting_; });
      if (decoded.ok() && decoded->type == ControlMessageType::kBatch) {
        const ReceivedBatch& batch = batches_.emplace_back(std::move(decoded->batch));
        reports_.insert(reports_.end(), batch.reports.begin(), batch.reports.end());
      }
    });
  }

  ~AgentTest() override { bus_.Unsubscribe(reports_sub_); }

  WeaveCommand CountCommand(uint64_t id) {
    WeaveCommand cmd;
    cmd.query_id = id;
    cmd.advice.emplace_back(
        "X", AdviceBuilder().Observe({{"v", "x.v"}}).Emit(id, {}).Build());
    cmd.plan.aggs = {{AggFn::kCount, "", "COUNT", false}};
    return cmd;
  }

  // Final rows of the i-th report received.
  std::vector<Tuple> Rows(size_t i) const {
    ResultSet set = (reports_[i].query_id == 5 ? streaming_ : counting_).EmptyLike();
    EXPECT_TRUE(set.DecodeSlices(reports_[i].wire));
    return set.Finalize();
  }

  void Fire(int64_t v) {
    ExecutionContext ctx(&runtime_);
    tp_->Invoke(&ctx, {{"v", Value(v)}});
  }

  ManualClock clock_;
  MessageBus bus_;
  TracepointRegistry registry_;
  ProcessRuntime runtime_;
  std::unique_ptr<PTAgent> agent_;
  Tracepoint* tp_;
  MessageBus::SubscriberId reports_sub_;
  ResultSet counting_{CountCommand(0).plan};
  ResultSet streaming_{ResultPlan{}};
  std::vector<ReceivedBatch> batches_;
  std::vector<ReceivedReport> reports_;
};

TEST_F(AgentTest, AnnouncesItselfOnStartup) {
  // The constructor's hello is a report-topic message (consumed by the
  // frontend, which we stand in for here).
  MessageBus bus2;
  bool hello_seen = false;
  bus2.Subscribe(kReportTopic, [&](const BusMessage& msg) {
    Result<ControlMessage> decoded = DecodeControlMessage(msg.payload);
    hello_seen = decoded.ok() && decoded->type == ControlMessageType::kHello;
  });
  TracepointRegistry registry2;
  PTAgent agent2(&bus2, &registry2, ProcessInfo{"B", "p2", 3});
  EXPECT_TRUE(hello_seen);
}

TEST_F(AgentTest, WeaveCommandActivatesTracepoint) {
  EXPECT_FALSE(tp_->enabled());
  bus_.Publish(BusMessage{kCommandTopic, EncodeWeave(CountCommand(1))});
  EXPECT_TRUE(tp_->enabled());
}

TEST_F(AgentTest, AggregatesPerIntervalAndResets) {
  bus_.Publish(BusMessage{kCommandTopic, EncodeWeave(CountCommand(1))});
  Fire(1);
  Fire(2);
  agent_->Flush(1'000'000);
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_EQ(reports_[0].query_id, 1u);
  EXPECT_EQ(batches_[0].host, "A");
  EXPECT_EQ(batches_[0].timestamp_micros, 1'000'000);
  ASSERT_EQ(Rows(0).size(), 1u);
  EXPECT_EQ(Rows(0)[0].Get("COUNT").int_value(), 2);

  // Interval state resets: a second flush with no activity reports nothing.
  agent_->Flush(2'000'000);
  EXPECT_EQ(reports_.size(), 1u);

  Fire(3);
  agent_->Flush(3'000'000);
  ASSERT_EQ(reports_.size(), 2u);
  EXPECT_EQ(Rows(1)[0].Get("COUNT").int_value(), 1);
}

TEST_F(AgentTest, DuplicateWeaveIgnored) {
  bus_.Publish(BusMessage{kCommandTopic, EncodeWeave(CountCommand(1))});
  bus_.Publish(BusMessage{kCommandTopic, EncodeWeave(CountCommand(1))});
  Fire(1);
  agent_->Flush(1'000'000);
  // Were it woven twice, COUNT would be 2.
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_EQ(Rows(0)[0].Get("COUNT").int_value(), 1);
}

TEST_F(AgentTest, UnweaveStopsEmissionAndReporting) {
  bus_.Publish(BusMessage{kCommandTopic, EncodeWeave(CountCommand(1))});
  Fire(1);
  bus_.Publish(BusMessage{kCommandTopic, EncodeUnweave(1)});
  EXPECT_FALSE(tp_->enabled());
  Fire(2);
  agent_->Flush(1'000'000);
  // The pre-unweave tuple is dropped with the query state.
  EXPECT_TRUE(reports_.empty());
}

TEST_F(AgentTest, MalformedCommandIgnored) {
  telemetry::Counter& decode_errors =
      telemetry::Metrics().GetCounter("agent.command_decode_errors");
  const uint64_t before = decode_errors.value();
  bus_.Publish(BusMessage{kCommandTopic, {0xDE, 0xAD, 0xBE, 0xEF}});
  bus_.Publish(BusMessage{kCommandTopic, {}});
  EXPECT_FALSE(tp_->enabled());  // Still sane.
  // Each undecodable frame is counted, not silently dropped.
  EXPECT_EQ(decode_errors.value() - before, 2u);
}

TEST_F(AgentTest, EmitForUnknownQueryDropped) {
  // Advice emitting to a query the agent does not know (e.g. unwoven race).
  agent_->EmitTuple(999, Tuple{{"v", Value(int64_t{1})}});
  agent_->Flush(1'000'000);
  EXPECT_TRUE(reports_.empty());
  EXPECT_EQ(agent_->emitted_tuples(), 0u);
}

TEST_F(AgentTest, StreamingQueryBuffersRawRows) {
  WeaveCommand cmd;
  cmd.query_id = 5;
  cmd.advice.emplace_back("X",
                          AdviceBuilder().Observe({{"v", "x.v"}}).Emit(5, {"x.v"}).Build());
  bus_.Publish(BusMessage{kCommandTopic, EncodeWeave(cmd)});

  Fire(7);
  Fire(8);
  agent_->Flush(1'000'000);
  ASSERT_EQ(reports_.size(), 1u);
  ASSERT_EQ(Rows(0).size(), 2u);
  EXPECT_EQ(Rows(0)[0].Get("x.v").int_value(), 7);
}

TEST_F(AgentTest, StatCountersTrackTraffic) {
  telemetry::Counter& reports = telemetry::Metrics().GetCounter("agent.reports");
  const uint64_t reports_before = reports.value();
  bus_.Publish(BusMessage{kCommandTopic, EncodeWeave(CountCommand(1))});
  for (int i = 0; i < 10; ++i) {
    Fire(i);
  }
  agent_->Flush(1'000'000);
  EXPECT_EQ(agent_->emitted_tuples(), 10u);
  EXPECT_EQ(agent_->reported_tuples(), 1u);
  EXPECT_EQ(reports.value() - reports_before, 1u);
}

}  // namespace
}  // namespace pivot
