// Real-thread concurrency stress: tracepoints fire from many threads while
// queries weave and unweave concurrently. Exercises the registry's atomic
// advice publication, the bus's locking, and the agent's mutex — under TSAN
// or plain execution this must be race-free and crash-free.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/agent/agent.h"
#include "src/agent/frontend.h"
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

TEST(ConcurrencyTest, InvokeWhileWeavingAndUnweaving) {
  MessageBus bus;
  TracepointRegistry schema;
  ASSERT_TRUE(schema.Define(Def("X", {"v"})).ok());

  TracepointRegistry registry;
  ProcessRuntime runtime;
  runtime.info = {"A", "proc", 1};
  PTAgent agent(&bus, &registry, runtime.info);
  runtime.sink = &agent;
  Tracepoint* tp = *registry.Define(Def("X", {"v"}));

  Frontend frontend(&bus, &schema);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> invocations{0};

  // Worker threads hammer the tracepoint with per-thread contexts.
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      ExecutionContext ctx(&runtime);
      while (!stop.load(std::memory_order_relaxed)) {
        tp->Invoke(&ctx, {{"v", Value(int64_t{t})}});
        invocations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The control thread installs and uninstalls queries continuously.
  int churns = 0;
  for (int i = 0; i < 200; ++i) {
    Result<uint64_t> q = frontend.Install("From e In X GroupBy e.v Select e.v, COUNT");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    std::this_thread::yield();
    agent.Flush(i * 1000);
    ASSERT_TRUE(frontend.Uninstall(*q).ok());
    ++churns;
  }
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }

  EXPECT_EQ(churns, 200);
  EXPECT_GT(invocations.load(), 1000u);
  // After the last uninstall the tracepoint is quiescent again.
  EXPECT_FALSE(tp->enabled());
}

TEST(ConcurrencyTest, ConcurrentEmittersIntoOneAgent) {
  MessageBus bus;
  TracepointRegistry schema;
  ASSERT_TRUE(schema.Define(Def("X", {"v"})).ok());
  TracepointRegistry registry;
  ProcessRuntime runtime;
  runtime.info = {"A", "proc", 1};
  PTAgent agent(&bus, &registry, runtime.info);
  runtime.sink = &agent;
  Tracepoint* tp = *registry.Define(Def("X", {"v"}));
  Frontend frontend(&bus, &schema);

  Result<uint64_t> q = frontend.Install("From e In X Select COUNT");
  ASSERT_TRUE(q.ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      ExecutionContext ctx(&runtime);
      for (int i = 0; i < kPerThread; ++i) {
        tp->Invoke(&ctx, {{"v", Value(int64_t{i})}});
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  agent.Flush(1'000'000);

  auto rows = frontend.Results(*q);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get("COUNT").int_value(), kThreads * kPerThread);
}

TEST(ConcurrencyTest, FlusherRacesEmittersAndQueryChurn) {
  // The sharded intake's full concurrent surface at once: 4 emitter threads
  // hammer EmitTuple through a woven tracepoint, a dedicated flusher thread
  // drains shards and publishes batches, and the control thread weaves and
  // unweaves continuously. TSan cleanliness is the primary assertion
  // (.github/workflows/ci.yml tsan job).
  MessageBus bus;
  TracepointRegistry schema;
  ASSERT_TRUE(schema.Define(Def("X", {"v"})).ok());
  TracepointRegistry registry;
  ProcessRuntime runtime;
  runtime.info = {"A", "proc", 1};
  PTAgent agent(&bus, &registry, runtime.info, /*shard_count=*/4);
  runtime.sink = &agent;
  Tracepoint* tp = *registry.Define(Def("X", {"v"}));
  Frontend frontend(&bus, &schema);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> invocations{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      ExecutionContext ctx(&runtime);
      while (!stop.load(std::memory_order_relaxed)) {
        tp->Invoke(&ctx, {{"v", Value(int64_t{t % 3})}});
        invocations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread flusher([&] {
    int64_t now = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      agent.Flush(now += 1000);
      std::this_thread::yield();
    }
  });
  // Churn only once an emitter is running: on a loaded host the 100 weaves
  // below can finish before the scheduler starts any emitter thread, and
  // then nothing raced them.
  while (invocations.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  for (int i = 0; i < 100; ++i) {
    Result<uint64_t> q =
        frontend.Install("From e In X GroupBy e.v Select e.v, COUNT, SUM(e.v)");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    std::this_thread::yield();
    ASSERT_TRUE(frontend.Uninstall(*q).ok());
  }
  stop.store(true);
  flusher.join();
  for (auto& w : workers) {
    w.join();
  }

  EXPECT_GT(invocations.load(), 0u);
  EXPECT_FALSE(tp->enabled());  // Last unweave left the tracepoint quiescent.
  // Nothing woven survives, so a final flush publishes nothing new.
  uint64_t reported_before = agent.reported_tuples();
  agent.Flush(1'000'000'000);
  EXPECT_EQ(agent.reported_tuples(), reported_before);
}

// Counts what advice emits; safe to share across threads.
class CountingSink : public EmitSink {
 public:
  void EmitTuple(uint64_t, const Tuple&) override {
    emits.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<uint64_t> emits{0};
};

TEST(ConcurrencyTest, PackingFiresRaceAdviceSetReclamation) {
  // 4 threads fire a tracepoint whose advice packs a bag and emits, while
  // the control thread weaves and unweaves 1k times, so sets are displaced
  // and freed under running fires. Freeing a set a fire still reads is a
  // use-after-free under ASan and a race under TSan.
  TracepointRegistry registry;
  CountingSink sink;
  ProcessRuntime runtime;
  runtime.info = {"A", "proc", 1};
  runtime.sink = &sink;
  Tracepoint* tp = *registry.Define(Def("X", {"v"}));
  auto advice = [](uint64_t q) {
    return AdviceBuilder()
        .Observe({{"v", "x.v"}})
        .Pack(q * kBagKeysPerQuery, BagSpec::First(), {"x.v"})
        .Emit(q, {"x.v"})
        .Build();
  };
  telemetry::Counter& retired = telemetry::Metrics().GetCounter("core.advice_sets_retired");
  telemetry::Counter& freed = telemetry::Metrics().GetCounter("core.advice_sets_freed");
  const uint64_t retired_before = retired.value();
  const uint64_t freed_before = freed.value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> invocations{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        ExecutionContext ctx(&runtime);
        tp->Invoke(&ctx, {{"v", Value(int64_t{t})}});
        invocations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  while (invocations.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  constexpr uint64_t kCycles = 1000;
  for (uint64_t q = 1; q <= kCycles; ++q) {
    ASSERT_TRUE(registry.WeaveQuery(q, {{"X", advice(q)}}).ok());
    // Let some fire run the woven set before it is displaced.
    const uint64_t fired = tp->woven_fires();
    for (int spin = 0; spin < 1000 && tp->woven_fires() == fired; ++spin) {
      std::this_thread::yield();
    }
    registry.UnweaveQuery(q);
  }
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }

  EXPECT_FALSE(tp->enabled());
  EXPECT_GT(sink.emits.load(), 0u);
  // One more weave and unweave, with no fire in flight, frees what the
  // churn left retired.
  ASSERT_TRUE(registry.WeaveQuery(kCycles + 1, {{"X", advice(kCycles + 1)}}).ok());
  registry.UnweaveQuery(kCycles + 1);
  // Each unweave displaced a set; each weave found the tracepoint unwoven.
  EXPECT_EQ(retired.value() - retired_before, kCycles + 1);
  EXPECT_EQ(freed.value() - freed_before, retired.value() - retired_before);
}

}  // namespace
}  // namespace pivot
