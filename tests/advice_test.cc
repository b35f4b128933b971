// Advice semantics (§3, Table 2), run through AdvicePlan, the one executor.

#include <gtest/gtest.h>

#include "src/core/advice.h"
#include "src/core/plan.h"
#include "src/telemetry/metrics.h"
#include "tests/test_util.h"

namespace pivot {
namespace {

class AdviceTest : public ::testing::Test {
 protected:
  AdviceTest() : proc_("A", "DataNode", &clock_), ctx_(&proc_.runtime) {}

  ManualClock clock_;
  FakeProcess proc_;
  ExecutionContext ctx_;
};

TEST_F(AdviceTest, PaperQ2AdvicePair) {
  // The exact advice the paper derives for Q2 (§3):
  //   A1: OBSERVE procName; PACK-FIRST procName
  //   A2: OBSERVE delta; UNPACK procName; EMIT procName, SUM(delta)
  // (aggregation of the emit happens in the agent; A2 emits joined tuples).
  AdvicePlan::Ptr a1 = AdvicePlan::Compile(AdviceBuilder()
                                               .Observe({{"procName", "cl.procName"}})
                                               .Pack(100, BagSpec::First(1), {"cl.procName"})
                                               .Build());
  AdvicePlan::Ptr a2 = AdvicePlan::Compile(
      AdviceBuilder().Observe({{"delta", "incr.delta"}}).Unpack(100).Emit(1, {}).Build());

  // First tracepoint invocation (ClientProtocols).
  a1->Execute(&ctx_, Tuple{{"procName", Value("FSread4m")}});
  // Later invocations of incrBytesRead in the same request.
  a2->Execute(&ctx_, Tuple{{"delta", Value(int64_t{4096})}});
  a2->Execute(&ctx_, Tuple{{"delta", Value(int64_t{8192})}});

  const auto& emitted = proc_.sink.emitted(1);
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[0].Get("incr.delta").int_value(), 4096);
  EXPECT_EQ(emitted[0].Get("cl.procName").string_value(), "FSread4m");
  EXPECT_EQ(emitted[1].Get("incr.delta").int_value(), 8192);
  EXPECT_EQ(emitted[1].Get("cl.procName").string_value(), "FSread4m");
}

TEST_F(AdviceTest, PackFirstIgnoresSubsequent) {
  AdvicePlan::Ptr a = AdvicePlan::Compile(
      AdviceBuilder().Observe({{"v", "p.v"}}).Pack(5, BagSpec::First(1), {"p.v"}).Build());
  a->Execute(&ctx_, Tuple{{"v", Value(int64_t{1})}});
  a->Execute(&ctx_, Tuple{{"v", Value(int64_t{2})}});
  auto tuples = UnpackCopy(ctx_.baggage(), 5);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].Get("p.v").int_value(), 1);
}

TEST_F(AdviceTest, UnpackEmptyBagProducesNothing) {
  // Inner-join semantics: no packed tuples -> nothing emitted downstream.
  AdvicePlan::Ptr a = AdvicePlan::Compile(
      AdviceBuilder().Observe({{"v", "q.v"}}).Unpack(999).Emit(1, {}).Build());
  a->Execute(&ctx_, Tuple{{"v", Value(int64_t{1})}});
  EXPECT_EQ(proc_.sink.total(), 0u);
}

TEST_F(AdviceTest, UnpackJoinsAllCombinations) {
  // "if t_o is observed and t_u1 and t_u2 are unpacked, the resulting tuples
  // are t_o·t_u1 and t_o·t_u2" (§3).
  ctx_.baggage().Pack(5, BagSpec::All(), Tuple{{"p.v", Value(int64_t{1})}});
  ctx_.baggage().Pack(5, BagSpec::All(), Tuple{{"p.v", Value(int64_t{2})}});
  AdvicePlan::Ptr a = AdvicePlan::Compile(
      AdviceBuilder().Observe({{"v", "q.v"}}).Unpack(5).Emit(1, {}).Build());
  a->Execute(&ctx_, Tuple{{"v", Value(int64_t{10})}});
  const auto& emitted = proc_.sink.emitted(1);
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[0].Get("q.v").int_value(), 10);
  EXPECT_EQ(emitted[0].Get("p.v").int_value(), 1);
  EXPECT_EQ(emitted[1].Get("p.v").int_value(), 2);
}

TEST_F(AdviceTest, DoubleUnpackIsCartesian) {
  ctx_.baggage().Pack(1, BagSpec::All(), Tuple{{"a.v", Value(int64_t{1})}});
  ctx_.baggage().Pack(1, BagSpec::All(), Tuple{{"a.v", Value(int64_t{2})}});
  ctx_.baggage().Pack(2, BagSpec::All(), Tuple{{"b.v", Value(int64_t{3})}});
  AdvicePlan::Ptr a = AdvicePlan::Compile(
      AdviceBuilder().Observe({}).Unpack(1).Unpack(2).Emit(1, {}).Build());
  a->Execute(&ctx_, Tuple());
  EXPECT_EQ(proc_.sink.emitted(1).size(), 2u);  // 2 x 1 combinations.
}

TEST_F(AdviceTest, FilterDropsNonMatching) {
  AdvicePlan::Ptr a = AdvicePlan::Compile(
      AdviceBuilder()
          .Observe({{"v", "q.v"}})
          .Filter(Expr::Binary(ExprOp::kGt, Expr::Field("q.v"), Expr::Literal(Value(int64_t{5}))))
          .Emit(1, {})
          .Build());
  a->Execute(&ctx_, Tuple{{"v", Value(int64_t{3})}});
  a->Execute(&ctx_, Tuple{{"v", Value(int64_t{7})}});
  ASSERT_EQ(proc_.sink.emitted(1).size(), 1u);
  EXPECT_EQ(proc_.sink.emitted(1)[0].Get("q.v").int_value(), 7);
}

TEST_F(AdviceTest, LetComputesDerivedColumn) {
  // Q8's `response.time - request.time` lowering.
  ctx_.baggage().Pack(1, BagSpec::Recent(1), Tuple{{"request.time", Value(int64_t{100})}});
  AdvicePlan::Ptr a = AdvicePlan::Compile(
      AdviceBuilder()
          .Observe({{"time", "response.time"}})
          .Unpack(1)
          .Let("latency", Expr::Binary(ExprOp::kSub, Expr::Field("response.time"),
                                       Expr::Field("request.time")))
          .Emit(1, {"latency"})
          .Build());
  a->Execute(&ctx_, Tuple{{"time", Value(int64_t{250})}});
  ASSERT_EQ(proc_.sink.emitted(1).size(), 1u);
  const Tuple& out = proc_.sink.emitted(1)[0];
  EXPECT_EQ(out.size(), 1u);  // Projection applied.
  EXPECT_EQ(out.Get("latency").int_value(), 150);
}

TEST_F(AdviceTest, PackProjectsFields) {
  AdvicePlan::Ptr a = AdvicePlan::Compile(AdviceBuilder()
                                              .Observe({{"v", "p.v"}, {"w", "p.w"}})
                                              .Pack(5, BagSpec::All(), {"p.v"})
                                              .Build());
  a->Execute(&ctx_, Tuple{{"v", Value(int64_t{1})}, {"w", Value(int64_t{2})}});
  auto tuples = UnpackCopy(ctx_.baggage(), 5);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_NE(tuples[0].Find(InternSymbol("p.v")), nullptr);
  EXPECT_EQ(tuples[0].Find(InternSymbol("p.w")), nullptr);
}

TEST_F(AdviceTest, AggregatedPackKeepsStateBounded) {
  BagSpec spec = BagSpec::Aggregated({"p.g"}, {{AggFn::kSum, "p.v", "SUM(p.v)", false}});
  AdvicePlan::Ptr a = AdvicePlan::Compile(
      AdviceBuilder().Observe({{"g", "p.g"}, {"v", "p.v"}}).Pack(5, spec, {}).Build());
  for (int i = 0; i < 100; ++i) {
    a->Execute(&ctx_, Tuple{{"g", Value(i % 2 == 0 ? "even" : "odd")},
                            {"v", Value(int64_t{i})}});
  }
  auto tuples = UnpackCopy(ctx_.baggage(), 5);
  ASSERT_EQ(tuples.size(), 2u);  // Bounded by group count, not invocation count.
  EXPECT_EQ(ctx_.baggage().TupleCount(), 2u);
}

TEST_F(AdviceTest, WorkingSetExplosionTruncates) {
  // Two kAll bags with many tuples each: the cartesian unpack would
  // materialize size1 * size2 tuples; the guard caps it.
  constexpr int64_t kPerBag = 1000;  // 1000 * 1000 > kMaxWorkingSet.
  for (int64_t i = 0; i < kPerBag; ++i) {
    ctx_.baggage().Pack(1, BagSpec::All(), Tuple{{"a.v", Value(i)}});
    ctx_.baggage().Pack(2, BagSpec::All(), Tuple{{"b.v", Value(i)}});
  }
  telemetry::Counter& truncations = telemetry::Metrics().GetCounter("advice.truncations");
  uint64_t before = truncations.value();
  AdvicePlan::Ptr a = AdvicePlan::Compile(
      AdviceBuilder().Observe({}).Unpack(1).Unpack(2).Emit(1, {}).Build());
  a->Execute(&ctx_, Tuple());
  EXPECT_EQ(proc_.sink.emitted(1).size(), AdvicePlan::kMaxWorkingSet);
  EXPECT_EQ(truncations.value(), before + 1);
}

TEST_F(AdviceTest, NullContextIsSafe) {
  AdvicePlan::Ptr a =
      AdvicePlan::Compile(AdviceBuilder().Observe({{"v", "q.v"}}).Emit(1, {}).Build());
  a->Execute(nullptr, Tuple{{"v", Value(int64_t{1})}});  // Must not crash.
}

TEST_F(AdviceTest, MissingExportObservesNull) {
  AdvicePlan::Ptr a =
      AdvicePlan::Compile(AdviceBuilder().Observe({{"nope", "q.nope"}}).Emit(1, {}).Build());
  a->Execute(&ctx_, Tuple{{"v", Value(int64_t{1})}});
  ASSERT_EQ(proc_.sink.emitted(1).size(), 1u);
  EXPECT_TRUE(proc_.sink.emitted(1)[0].Get("q.nope").is_null());
}

TEST(AdviceToStringTest, RendersProgram) {
  Advice::Ptr a = AdviceBuilder()
                      .Observe({{"procName", "cl.procName"}})
                      .Pack(100, BagSpec::First(1), {"cl.procName"})
                      .Build();
  std::string listing = a->ToString();
  EXPECT_NE(listing.find("OBSERVE procName AS cl.procName"), std::string::npos);
  EXPECT_NE(listing.find("PACK-FIRST"), std::string::npos);
}

}  // namespace
}  // namespace pivot
