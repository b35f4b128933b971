// Sharded emission-path equivalence (docs/PERFORMANCE.md, "Emission path"):
// the same tuple stream pushed through K threads into a multi-shard PTAgent
// must produce exactly the results of a single serial Aggregator — the
// shard-merge at Flush is the paper's Table 3 combiner, so sharding may
// change association order but never values. Single-threaded emission must
// stay byte-for-byte identical to a one-shard agent (determinism contract
// for the simulator and the golden tests).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/agent/agent.h"
#include "src/agent/frontend.h"
#include "src/bus/message_bus.h"
#include "src/telemetry/metrics.h"
#include "tests/test_util.h"

namespace pivot {
namespace {

WeaveCommand GroupedCommand(uint64_t id) {
  // GroupBy x.v: COUNT plus SUM(x.w) per group — exercises both the keyed
  // index and multi-accumulator merge.
  WeaveCommand cmd;
  cmd.query_id = id;
  cmd.advice.emplace_back(
      "X", AdviceBuilder().Observe({{"v", "x.v"}, {"w", "x.w"}}).Emit(id, {}).Build());
  cmd.plan.group_fields = {"x.v"};
  cmd.plan.aggs = {{AggFn::kCount, "", "COUNT", false},
                   {AggFn::kSum, "x.w", "SUM(x.w)", false}};
  return cmd;
}

Tuple Row(int64_t v, int64_t w) {
  return Tuple{{"x.v", Value(v)}, {"x.w", Value(w)}};
}

// Records every kBatch frame the agent publishes and merges the reports for
// `id` (decoded against GroupedCommand's plan) the way the frontend does.
class BatchCollector {
 public:
  BatchCollector(MessageBus* bus, uint64_t id)
      : bus_(bus), merged_(GroupedCommand(id).plan) {
    sub_ = bus_->Subscribe(kReportTopic, [this, id](const BusMessage& msg) {
      Result<ControlMessage> decoded = DecodeControlMessage(
          msg.payload, [this, id](uint64_t query) { return query == id ? &merged_ : nullptr; });
      if (!decoded.ok() || decoded->type != ControlMessageType::kBatch) {
        return;
      }
      frames_.push_back(msg.payload);
      for (const ReceivedReport& r : decoded->batch.reports) {
        EXPECT_TRUE(merged_.DecodeSlices(r.wire));
      }
    });
  }
  ~BatchCollector() { bus_->Unsubscribe(sub_); }

  const std::vector<std::vector<uint8_t>>& frames() const { return frames_; }
  const ResultSet& merged() const { return merged_; }

 private:
  MessageBus* bus_;
  MessageBus::SubscriberId sub_;
  ResultSet merged_;
  std::vector<std::vector<uint8_t>> frames_;
};

TEST(ShardedEmitTest, ConcurrentShardedIntakeMatchesSerialReference) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  constexpr uint64_t kQuery = 11;

  telemetry::Counter& dropped = telemetry::Metrics().GetCounter("agent.tuples_dropped");
  const uint64_t dropped_before = dropped.value();
  MessageBus bus;
  TracepointRegistry registry;
  PTAgent agent(&bus, &registry, ProcessInfo{"A", "proc", 1}, /*shard_count=*/8);
  BatchCollector collector(&bus, kQuery);
  bus.Publish(BusMessage{kCommandTopic, EncodeWeave(GroupedCommand(kQuery))});

  // Deterministic per-thread streams: thread t emits (v = i % 7, w = t + i).
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&agent, t] {
      for (int i = 0; i < kPerThread; ++i) {
        agent.EmitTuple(kQuery, Row(i % 7, t + i));
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  agent.Flush(1'000'000);

  // Reference: the identical multiset of rows through one serial Aggregator.
  Aggregator reference(GroupedCommand(kQuery).plan.group_fields,
                       GroupedCommand(kQuery).plan.aggs);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      reference.AddInput(Row(i % 7, t + i));
    }
  }

  // Compare the merged reports' final results order-insensitively (shard
  // drain order may differ from the serial insertion order; values may not).
  EXPECT_EQ(CanonicalTuples(collector.merged().Finalize()),
            CanonicalTuples(reference.Finalize()));
  EXPECT_EQ(agent.emitted_tuples(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(dropped.value(), dropped_before);
}

TEST(ShardedEmitTest, FrontendMergeMatchesReferenceEndToEnd) {
  // Same check through the full pipeline: woven tracepoint -> sharded agent
  // -> batch frame -> frontend merge.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;

  MessageBus bus;
  TracepointRegistry schema;
  TracepointDef def;
  def.name = "X";
  def.exports = {"v"};
  ASSERT_TRUE(schema.Define(def).ok());

  TracepointRegistry registry;
  ProcessRuntime runtime;
  runtime.info = {"A", "proc", 1};
  PTAgent agent(&bus, &registry, runtime.info, /*shard_count=*/8);
  runtime.sink = &agent;
  Tracepoint* tp = *registry.Define(def);
  Frontend frontend(&bus, &schema);

  Result<uint64_t> q = frontend.Install("From e In X GroupBy e.v Select e.v, COUNT");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      ExecutionContext ctx(&runtime);
      for (int i = 0; i < kPerThread; ++i) {
        tp->Invoke(&ctx, {{"v", Value(int64_t{i % 5})}});
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  agent.Flush(1'000'000);

  std::vector<Tuple> rows = frontend.Results(*q);
  ASSERT_EQ(rows.size(), 5u);
  for (const Tuple& row : rows) {
    EXPECT_EQ(row.Get("COUNT").int_value(), kThreads * kPerThread / 5);
  }
}

TEST(ShardedEmitTest, SingleThreadReportIdenticalToOneShardAgent) {
  // A single-threaded emitter lands in exactly one shard, so a multi-shard
  // agent's report frames must match a one-shard (global-lock-equivalent)
  // agent's byte for byte, group order included.
  constexpr uint64_t kQuery = 3;
  MessageBus bus_sharded;
  MessageBus bus_single;
  TracepointRegistry reg_a;
  TracepointRegistry reg_b;
  PTAgent sharded(&bus_sharded, &reg_a, ProcessInfo{"A", "p", 1}, /*shard_count=*/8);
  PTAgent single(&bus_single, &reg_b, ProcessInfo{"A", "p", 1}, /*shard_count=*/1);
  BatchCollector sharded_reports(&bus_sharded, kQuery);
  BatchCollector single_reports(&bus_single, kQuery);
  bus_sharded.Publish(BusMessage{kCommandTopic, EncodeWeave(GroupedCommand(kQuery))});
  bus_single.Publish(BusMessage{kCommandTopic, EncodeWeave(GroupedCommand(kQuery))});

  for (int i = 0; i < 500; ++i) {
    Tuple row = Row(i % 11, i);
    sharded.EmitTuple(kQuery, row);
    single.EmitTuple(kQuery, row);
  }
  sharded.Flush(1'000'000);
  single.Flush(1'000'000);

  ASSERT_EQ(sharded_reports.frames().size(), 1u);
  EXPECT_EQ(sharded_reports.frames(), single_reports.frames());
  EXPECT_EQ(sharded_reports.merged().size(), 11u);
}

TEST(ShardedEmitTest, EmittersRacingFlushLoopLoseNoTuple) {
  // Emitters fire while a flush loop keeps swapping their shard sets out:
  // every emitted tuple must reach the frontend exactly once, in whichever
  // interval its swap put it. Run under TSan by scripts/check.sh.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3000;

  MessageBus bus;
  TracepointRegistry schema;
  TracepointDef def;
  def.name = "X";
  def.exports = {"v"};
  ASSERT_TRUE(schema.Define(def).ok());
  TracepointRegistry registry;
  ProcessRuntime runtime;
  runtime.info = {"A", "proc", 1};
  PTAgent agent(&bus, &registry, runtime.info, /*shard_count=*/2);
  runtime.sink = &agent;
  Tracepoint* tp = *registry.Define(def);
  Frontend frontend(&bus, &schema);
  Result<uint64_t> q = frontend.Install("From e In X GroupBy e.v Select e.v, COUNT");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  std::atomic<int> running{kThreads};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      ExecutionContext ctx(&runtime);
      for (int i = 0; i < kPerThread; ++i) {
        tp->Invoke(&ctx, {{"v", Value(int64_t{i % 97})}});
      }
      running.fetch_sub(1);
    });
  }
  int64_t now = 0;
  size_t flushes = 0;
  while (running.load() > 0) {
    agent.Flush(now += 1000);
    ++flushes;
  }
  for (auto& w : workers) {
    w.join();
  }
  agent.Flush(now += 1000);

  int64_t counted = 0;
  for (const Tuple& row : frontend.Results(*q)) {
    counted += row.Get("COUNT").int_value();
  }
  EXPECT_EQ(agent.emitted_tuples(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(static_cast<uint64_t>(counted), agent.emitted_tuples());
  EXPECT_EQ(frontend.Results(*q).size(), 97u);
  EXPECT_GT(flushes, 0u);
}

TEST(ShardedEmitTest, HeartbeatSemanticsSurviveBatching) {
  // Quiet queries still heartbeat every kFlushesPerSuppressedHeartbeat
  // flushes, now inside the batch frame.
  constexpr uint64_t kQuery = 9;
  MessageBus bus;
  TracepointRegistry registry;
  PTAgent agent(&bus, &registry, ProcessInfo{"A", "p", 1}, /*shard_count=*/4);
  std::vector<AgentStats> heartbeats;
  std::string heartbeat_host;
  auto sub = bus.Subscribe(kReportTopic, [&](const BusMessage& msg) {
    Result<ControlMessage> decoded = DecodeControlMessage(msg.payload);
    if (decoded.ok() && decoded->type == ControlMessageType::kBatch) {
      for (const AgentStats& hb : decoded->batch.heartbeats) {
        heartbeats.push_back(hb);
        heartbeat_host = decoded->batch.host;
      }
    }
  });
  bus.Publish(BusMessage{kCommandTopic, EncodeWeave(GroupedCommand(kQuery))});

  for (uint64_t i = 1; i <= kFlushesPerSuppressedHeartbeat; ++i) {
    agent.Flush(static_cast<int64_t>(i) * 1000);
  }
  ASSERT_EQ(heartbeats.size(), 1u);
  EXPECT_EQ(heartbeats[0].query_id, kQuery);
  EXPECT_EQ(heartbeat_host, "A");
  EXPECT_EQ(heartbeats[0].reports_suppressed, kFlushesPerSuppressedHeartbeat);
  bus.Unsubscribe(sub);
}

}  // namespace
}  // namespace pivot
