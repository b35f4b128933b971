#include <gtest/gtest.h>

#include <thread>

#include "src/core/context.h"
#include "tests/test_util.h"

namespace pivot {
namespace {

TEST(ContextTest, RuntimeClockAndIdentity) {
  ManualClock clock;
  FakeProcess proc("A", "DataNode", &clock);
  clock.now = 42;
  EXPECT_EQ(proc.runtime.NowMicros(), 42);
  EXPECT_EQ(proc.runtime.info.host, "A");
}

TEST(ContextTest, DefaultClockIsWallClock) {
  ProcessRuntime rt;
  int64_t a = rt.NowMicros();
  int64_t b = rt.NowMicros();
  EXPECT_GE(b, a);
}

TEST(ContextTest, ForkSplitsBaggage) {
  ManualClock clock;
  FakeProcess proc("A", "p", &clock);
  ExecutionContext ctx(&proc.runtime);
  ctx.baggage().Pack(1, BagSpec::All(), Tuple{{"x", Value(int64_t{1})}});

  ExecutionContext other = ctx.Fork();
  ctx.baggage().Pack(1, BagSpec::All(), Tuple{{"x", Value(int64_t{2})}});
  other.baggage().Pack(1, BagSpec::All(), Tuple{{"x", Value(int64_t{3})}});

  EXPECT_EQ(CanonicalTuples(UnpackCopy(ctx.baggage(), 1)),
            (std::vector<std::string>{"(x=1)", "(x=2)"}));
  EXPECT_EQ(CanonicalTuples(UnpackCopy(other.baggage(), 1)),
            (std::vector<std::string>{"(x=1)", "(x=3)"}));

  ctx.Join(std::move(other));
  EXPECT_EQ(CanonicalTuples(UnpackCopy(ctx.baggage(), 1)),
            (std::vector<std::string>{"(x=1)", "(x=2)", "(x=3)"}));
}

TEST(ContextTest, TraceRecordingAdvancesEvents) {
  TraceRecorder recorder;
  ExecutionContext ctx;
  ctx.StartTrace(&recorder);
  EventId root = ctx.current_event();
  EventId e1 = ctx.AdvanceEvent();
  EventId e2 = ctx.AdvanceEvent();
  const TraceGraph& g = *recorder.graph(ctx.trace_id());
  EXPECT_TRUE(g.HappenedBefore(root, e1));
  EXPECT_TRUE(g.HappenedBefore(e1, e2));
  EXPECT_TRUE(g.HappenedBefore(root, e2));
  EXPECT_FALSE(g.HappenedBefore(e2, e1));
}

TEST(ContextTest, ForkCreatesConcurrentEvents) {
  TraceRecorder recorder;
  ExecutionContext ctx;
  ctx.StartTrace(&recorder);
  ExecutionContext other = ctx.Fork();
  EventId a = ctx.AdvanceEvent();
  EventId b = other.AdvanceEvent();
  const TraceGraph& g = *recorder.graph(ctx.trace_id());
  EXPECT_FALSE(g.HappenedBefore(a, b));
  EXPECT_FALSE(g.HappenedBefore(b, a));

  EventId before_join_a = ctx.current_event();
  ctx.Join(std::move(other));
  EventId joined = ctx.current_event();
  EXPECT_TRUE(g.HappenedBefore(before_join_a, joined));
  EXPECT_TRUE(g.HappenedBefore(b, joined));
}

TEST(ContextTest, BaggagePropagatesAcrossRealThreads) {
  // The real-thread analogue of the paper's instrumented Thread/Runnable:
  // serialize on the parent, deserialize on the child, join the halves.
  ExecutionContext parent;
  parent.baggage().Pack(1, BagSpec::All(), Tuple{{"x", Value(int64_t{1})}});
  ExecutionContext child_ctx = parent.Fork();
  std::vector<uint8_t> child_bytes = child_ctx.baggage().Serialize();

  std::vector<uint8_t> returned;
  std::thread worker([&child_bytes, &returned] {
    Result<Baggage> baggage = Baggage::Deserialize(child_bytes);
    ASSERT_TRUE(baggage.ok());
    baggage->Pack(1, BagSpec::All(), Tuple{{"x", Value(int64_t{99})}});
    returned = baggage->Serialize();
  });
  worker.join();

  Result<Baggage> child_result = Baggage::Deserialize(returned);
  ASSERT_TRUE(child_result.ok());
  child_ctx.set_baggage(std::move(child_result).value());
  parent.Join(std::move(child_ctx));
  EXPECT_EQ(CanonicalTuples(UnpackCopy(parent.baggage(), 1)),
            (std::vector<std::string>{"(x=1)", "(x=99)"}));
}

}  // namespace
}  // namespace pivot
