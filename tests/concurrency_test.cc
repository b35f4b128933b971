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

}  // namespace
}  // namespace pivot
