// Tests for Frontend result listeners (streaming consumption of agent
// reports), driven by explicit PTAgent::Flush calls.

#include <gtest/gtest.h>

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

struct RealTimeHarness {
  MessageBus bus;
  TracepointRegistry schema;
  TracepointRegistry registry;
  ProcessRuntime runtime;
  std::unique_ptr<PTAgent> agent;
  Frontend frontend;
  Tracepoint* tp;

  RealTimeHarness() : frontend(&bus, &schema) {
    EXPECT_TRUE(schema.Define(Def("X", {"v"})).ok());
    runtime.info = {"A", "proc", 1};
    agent = std::make_unique<PTAgent>(&bus, &registry, runtime.info);
    runtime.sink = agent.get();
    tp = *registry.Define(Def("X", {"v"}));
  }
};

TEST(ResultListenerTest, StreamsIntervalRowsAsTheyArrive) {
  RealTimeHarness h;
  Result<uint64_t> q = h.frontend.Install("From e In X Select SUM(e.v)");
  ASSERT_TRUE(q.ok());

  std::vector<int64_t> sums;
  std::vector<int64_t> timestamps;
  ASSERT_TRUE(h.frontend
                  .SetResultListener(*q,
                                     [&](int64_t ts, const std::vector<Tuple>& rows) {
                                       timestamps.push_back(ts);
                                       for (const auto& row : rows) {
                                         sums.push_back(row.Get("SUM(e.v)").int_value());
                                       }
                                     })
                  .ok());

  ExecutionContext ctx(&h.runtime);
  h.tp->Invoke(&ctx, {{"v", Value(int64_t{10})}});
  h.agent->Flush(1'000'000);
  h.tp->Invoke(&ctx, {{"v", Value(int64_t{7})}});
  h.tp->Invoke(&ctx, {{"v", Value(int64_t{3})}});
  h.agent->Flush(2'000'000);

  EXPECT_EQ(timestamps, (std::vector<int64_t>{1'000'000, 2'000'000}));
  EXPECT_EQ(sums, (std::vector<int64_t>{10, 10}));
  // Cumulative results unaffected.
  EXPECT_EQ(h.frontend.Results(*q)[0].Get("SUM(e.v)").int_value(), 20);
}

TEST(ResultListenerTest, ListenerMayCallBackIntoFrontend) {
  RealTimeHarness h;
  Result<uint64_t> q = h.frontend.Install("From e In X Select COUNT");
  ASSERT_TRUE(q.ok());
  int64_t observed_total = 0;
  ASSERT_TRUE(h.frontend
                  .SetResultListener(*q,
                                     [&](int64_t, const std::vector<Tuple>&) {
                                       observed_total =
                                           h.frontend.Results(*q)[0].Get("COUNT").int_value();
                                     })
                  .ok());
  ExecutionContext ctx(&h.runtime);
  h.tp->Invoke(&ctx, {{"v", Value(int64_t{1})}});
  h.agent->Flush(1'000'000);
  EXPECT_EQ(observed_total, 1);
}

TEST(ResultListenerTest, UnknownQueryRejected) {
  RealTimeHarness h;
  EXPECT_FALSE(h.frontend.SetResultListener(12345, nullptr).ok());
}

}  // namespace
}  // namespace pivot
