#include <gtest/gtest.h>

#include "src/common/rand.h"
#include "src/core/advice_io.h"
#include "src/core/plan.h"

namespace pivot {
namespace {

TEST(ExprIoTest, RoundTripsAllNodeKinds) {
  Expr::Ptr e = Expr::Binary(
      ExprOp::kAnd,
      Expr::Binary(ExprOp::kNe, Expr::Field("st.host"), Expr::Field("DNop.host")),
      Expr::Binary(ExprOp::kLt,
                   Expr::Binary(ExprOp::kSub, Expr::Field("r.time"),
                                Expr::Unary(ExprOp::kNeg, Expr::Literal(Value(int64_t{5})))),
                   Expr::Literal(Value(2.5))));
  std::vector<uint8_t> buf;
  EncodeExpr(&buf, e);
  size_t pos = 0;
  Expr::Ptr decoded;
  ASSERT_TRUE(DecodeExpr(buf.data(), buf.size(), &pos, &decoded));
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(decoded->ToString(), e->ToString());
}

TEST(ExprIoTest, StringLiteralRoundTrip) {
  Expr::Ptr e = Expr::Binary(ExprOp::kEq, Expr::Field("e.op"), Expr::Literal(Value("READ")));
  std::vector<uint8_t> buf;
  EncodeExpr(&buf, e);
  size_t pos = 0;
  Expr::Ptr decoded;
  ASSERT_TRUE(DecodeExpr(buf.data(), buf.size(), &pos, &decoded));
  EXPECT_EQ(decoded->Eval(Tuple{{"e.op", Value("READ")}}).int_value(), 1);
}

TEST(ExprIoTest, RejectsTruncation) {
  Expr::Ptr e = Expr::Binary(ExprOp::kAdd, Expr::Field("a"), Expr::Field("b"));
  std::vector<uint8_t> buf;
  EncodeExpr(&buf, e);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    Expr::Ptr decoded;
    EXPECT_FALSE(DecodeExpr(buf.data(), cut, &pos, &decoded)) << "cut=" << cut;
  }
}

TEST(ExprIoTest, RejectsDeepNesting) {
  // A long chain of unary-NOT tags would recurse past the depth cap.
  std::vector<uint8_t> buf(200, static_cast<uint8_t>(ExprOp::kNot));
  size_t pos = 0;
  Expr::Ptr decoded;
  EXPECT_FALSE(DecodeExpr(buf.data(), buf.size(), &pos, &decoded));
}

TEST(AdviceIoTest, RoundTripsFullProgram) {
  Advice::Ptr advice =
      AdviceBuilder()
          .Observe({{"delta", "incr.delta"}, {"host", "incr.host"}})
          .Unpack(257)
          .Let("latency", Expr::Binary(ExprOp::kSub, Expr::Field("b"), Expr::Field("a")))
          .Filter(Expr::Binary(ExprOp::kGt, Expr::Field("latency"), Expr::Literal(Value(int64_t{0}))))
          .Pack(258,
                BagSpec::Aggregated({"incr.host"}, {{AggFn::kSum, "incr.delta", "S", false}}),
                {"incr.host"})
          .Emit(9, {"latency"})
          .Build();

  std::vector<uint8_t> buf;
  EncodeAdvice(&buf, *advice);
  size_t pos = 0;
  Advice::Ptr decoded;
  ASSERT_TRUE(DecodeAdvice(buf.data(), buf.size(), &pos, &decoded));
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(decoded->ToString(), advice->ToString());
  ASSERT_EQ(decoded->ops().size(), 6u);
  EXPECT_EQ(decoded->ops()[1].bag, 257u);
  EXPECT_EQ(decoded->ops()[4].bag_spec.semantics, PackSemantics::kAggregate);
  EXPECT_EQ(decoded->ops()[5].query_id, 9u);
}

TEST(AdviceIoTest, FuzzDecodeNeverCrashes) {
  Rng rng(777);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<uint8_t> junk(rng.NextBelow(48));
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    size_t pos = 0;
    Advice::Ptr decoded;
    DecodeAdvice(junk.data(), junk.size(), &pos, &decoded);  // Result irrelevant; no crash.
  }
}

TEST(AdviceIoTest, DecodedAdviceExecutesIdentically) {
  Advice::Ptr original = AdviceBuilder()
                             .Observe({{"v", "p.v"}})
                             .Pack(11, BagSpec::First(1), {"p.v"})
                             .Build();
  std::vector<uint8_t> buf;
  EncodeAdvice(&buf, *original);
  size_t pos = 0;
  Advice::Ptr decoded;
  ASSERT_TRUE(DecodeAdvice(buf.data(), buf.size(), &pos, &decoded));

  ExecutionContext c1;
  ExecutionContext c2;
  AdvicePlan::Compile(original)->Execute(&c1, Tuple{{"v", Value(int64_t{5})}});
  AdvicePlan::Compile(decoded)->Execute(&c2, Tuple{{"v", Value(int64_t{5})}});
  EXPECT_EQ(c1.baggage().TupleCount(), 1u);
  EXPECT_EQ(c1.baggage().Serialize(), c2.baggage().Serialize());
}

}  // namespace
}  // namespace pivot
