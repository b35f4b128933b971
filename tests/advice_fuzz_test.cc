// Property tests for the wire → verifier path: DecodeAdvice must never crash
// on mutated or garbage bytes, and whatever it does accept must survive
// AdviceVerifier/QueryLinter without crashing — the exact invariant the agent
// relies on when it re-verifies advice off the bus before weaving. Run under
// the sanitizer build (scripts/check.sh --sanitize=address) this doubles as
// the memory-safety proof for the decoder and the analyzer.

#include <gtest/gtest.h>

#include "src/analysis/advice_verifier.h"
#include "src/analysis/query_linter.h"
#include "src/common/rand.h"
#include "src/core/advice.h"
#include "src/core/advice_io.h"
#include "src/core/context.h"
#include "src/core/plan.h"

namespace pivot {
namespace {

using analysis::AdviceVerifier;
using analysis::QueryLinter;

// Builds a random (structurally valid) advice program. Field names are drawn
// from a small pool so some programs read columns they produced and others
// read columns they did not — both sides of the PT102 check get exercised.
class AdviceGenerator {
 public:
  explicit AdviceGenerator(uint64_t seed) : rng_(seed) {}

  // `deterministic_sampling` restricts Sample rates to {0, >=1}, which decide
  // without consuming the shared sampling counter — required when the same
  // program runs down two execution paths that must agree tuple-for-tuple.
  Advice::Ptr Random(bool deterministic_sampling = false) {
    AdviceBuilder b;
    if (rng_.NextBool(0.3)) {
      b.Sample(deterministic_sampling
                   ? (rng_.NextBool(0.85) ? 1.5 : 0.0)
                   : rng_.NextDouble() * 1.5);  // Sometimes out of range: PT104 food.
    }
    int ops = static_cast<int>(1 + rng_.NextBelow(6));
    for (int i = 0; i < ops; ++i) {
      switch (rng_.NextBelow(6)) {
        case 0: {
          std::vector<std::pair<std::string, std::string>> vars;
          int n = static_cast<int>(1 + rng_.NextBelow(3));
          for (int v = 0; v < n; ++v) {
            vars.emplace_back(Name(), "t." + Name());
          }
          b.Observe(std::move(vars));
          break;
        }
        case 1:
          b.Unpack(rng_.NextBelow(4 * kBagKeysPerQuery));
          break;
        case 2:
          b.Let(Name(), RandomExpr(2));
          break;
        case 3:
          b.Filter(RandomExpr(2));
          break;
        case 4:
          b.Pack(rng_.NextBelow(4 * kBagKeysPerQuery), RandomSpec(), RandomFields());
          break;
        default:
          b.Emit(rng_.NextBelow(4), RandomFields());
          break;
      }
    }
    return b.Build();
  }

  std::vector<uint8_t> Mutate(std::vector<uint8_t> bytes) {
    int edits = static_cast<int>(1 + rng_.NextBelow(8));
    for (int i = 0; i < edits && !bytes.empty(); ++i) {
      size_t at = rng_.NextBelow(bytes.size());
      switch (rng_.NextBelow(3)) {
        case 0:
          bytes[at] = static_cast<uint8_t>(rng_.NextBelow(256));
          break;
        case 1:
          bytes.erase(bytes.begin() + static_cast<ptrdiff_t>(at));
          break;
        default:
          bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(at),
                       static_cast<uint8_t>(rng_.NextBelow(256)));
          break;
      }
    }
    return bytes;
  }

  std::vector<uint8_t> Garbage() {
    std::vector<uint8_t> bytes(rng_.NextBelow(200));
    for (auto& byte : bytes) {
      byte = static_cast<uint8_t>(rng_.NextBelow(256));
    }
    return bytes;
  }

  Rng* rng() { return &rng_; }

 private:
  std::string Name() {
    static const char* kNames[] = {"x", "y", "host", "delta", "q"};
    return kNames[rng_.NextBelow(5)];
  }

  std::vector<std::string> RandomFields() {
    std::vector<std::string> fields;
    int n = static_cast<int>(rng_.NextBelow(3));
    for (int i = 0; i < n; ++i) {
      fields.push_back("t." + Name());
    }
    return fields;
  }

  BagSpec RandomSpec() {
    switch (rng_.NextBelow(4)) {
      case 0:
        return BagSpec::All();
      case 1:
        return BagSpec::First(static_cast<uint32_t>(1 + rng_.NextBelow(4)));
      case 2:
        return BagSpec::Recent(static_cast<uint32_t>(1 + rng_.NextBelow(4)));
      default:
        return BagSpec::Aggregated(
            {"t." + Name()}, {AggSpec{AggFn::kSum, "t." + Name(), "SUM", false}});
    }
  }

  Expr::Ptr RandomExpr(int depth) {
    if (depth == 0 || rng_.NextBool(0.4)) {
      switch (rng_.NextBelow(3)) {
        case 0:
          return Expr::Field("t." + Name());
        case 1:
          return Expr::Literal(Value(rng_.NextInt(-10, 10)));
        default:
          return Expr::Literal(Value("s" + std::to_string(rng_.NextBelow(3))));
      }
    }
    static const ExprOp kOps[] = {ExprOp::kAdd, ExprOp::kSub, ExprOp::kMul,
                                  ExprOp::kDiv, ExprOp::kMod, ExprOp::kEq,
                                  ExprOp::kLt,  ExprOp::kAnd, ExprOp::kOr};
    return Expr::Binary(kOps[rng_.NextBelow(9)], RandomExpr(depth - 1),
                        RandomExpr(depth - 1));
  }

  Rng rng_;
};

// Decode + analyze without crashing, whatever the bytes were.
void DecodeAndAnalyze(const std::vector<uint8_t>& bytes) {
  size_t pos = 0;
  Advice::Ptr advice;
  if (!DecodeAdvice(bytes.data(), bytes.size(), &pos, &advice)) {
    return;  // Rejecting is always fine; crashing is not.
  }
  ASSERT_LE(pos, bytes.size());
  ASSERT_NE(advice, nullptr);
  (void)AdviceVerifier().Verify(*advice);
  // And through the whole-query path the agent uses before weaving.
  std::vector<std::pair<std::string, Advice::Ptr>> stages;
  stages.emplace_back("fuzz.tp", advice);
  (void)QueryLinter().Lint(1, stages, ResultPlan{});
}

class AdviceRoundTripFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdviceRoundTripFuzz, EncodedAdviceDecodesAndVerifiesCleanly) {
  AdviceGenerator gen(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    Advice::Ptr advice = gen.Random();
    std::vector<uint8_t> bytes;
    EncodeAdvice(&bytes, *advice);
    size_t pos = 0;
    Advice::Ptr decoded;
    ASSERT_TRUE(DecodeAdvice(bytes.data(), bytes.size(), &pos, &decoded));
    ASSERT_EQ(pos, bytes.size());
    ASSERT_EQ(decoded->ops().size(), advice->ops().size());
    // The analyzer must accept the program as *analyzable* (diagnostics are
    // expected — these are random programs — but no crash, and the report is
    // deterministic across the round trip).
    std::string before = AdviceVerifier().Verify(*advice).report.ToString();
    std::string after = AdviceVerifier().Verify(*decoded).report.ToString();
    EXPECT_EQ(before, after);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdviceRoundTripFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

class AdviceMutationFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdviceMutationFuzz, MutatedBytesNeverCrashDecoderOrVerifier) {
  AdviceGenerator gen(GetParam() * 7919);
  for (int trial = 0; trial < 200; ++trial) {
    Advice::Ptr advice = gen.Random();
    std::vector<uint8_t> bytes;
    EncodeAdvice(&bytes, *advice);
    DecodeAndAnalyze(gen.Mutate(bytes));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdviceMutationFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

class AdviceGarbageFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdviceGarbageFuzz, GarbageBytesAreRejectedOrAnalyzedWithoutCrash) {
  AdviceGenerator gen(GetParam() * 104729);
  for (int trial = 0; trial < 500; ++trial) {
    DecodeAndAnalyze(gen.Garbage());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdviceGarbageFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

// ---- Compiled-plan equivalence (docs/PERFORMANCE.md) ----
//
// AdvicePlan::Compile lowers advice into pre-resolved steps; Execute must be
// observationally identical to the reference interpreter Advice::Execute:
// same emitted (query, tuple) sequence, byte-identical serialized baggage,
// and the bytes must survive a Deserialize/Serialize round trip under the
// copy-on-write instance representation. Sampling in (0,1) draws from a
// shared process-global counter, so programs here use only rates that decide
// without consuming it (the probabilistic branch is the same shared
// advice_internal::SampleAccept on both paths).

class CollectSink : public EmitSink {
 public:
  void EmitTuple(uint64_t query_id, const Tuple& t) override {
    emitted.emplace_back(query_id, t);
  }
  std::vector<std::pair<uint64_t, Tuple>> emitted;
};

class PlanEquivalenceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanEquivalenceFuzz, PlanMatchesReferenceInterpreter) {
  AdviceGenerator gen(GetParam() * 31337);
  Rng* rng = gen.rng();
  for (int trial = 0; trial < 60; ++trial) {
    Advice::Ptr advice = gen.Random(/*deterministic_sampling=*/true);
    AdvicePlan::Ptr plan = AdvicePlan::Compile(advice);
    ASSERT_NE(plan, nullptr);
    ASSERT_EQ(plan->step_count(), advice->ops().size());

    // Identical starting state on both sides: a baggage with a few packed
    // tuples (copied, so the two contexts cannot influence each other).
    Baggage seed_baggage;
    int packs = static_cast<int>(rng->NextBelow(4));
    for (int i = 0; i < packs; ++i) {
      seed_baggage.Pack(rng->NextBelow(4 * kBagKeysPerQuery), BagSpec::All(),
                        Tuple{{"t.host", Value(rng->NextInt(0, 5))},
                              {"t.delta", Value(rng->NextInt(-100, 100))}});
    }
    Tuple exports{{"x", Value(rng->NextInt(-5, 5))},
                  {"host", Value("h" + std::to_string(rng->NextBelow(3)))},
                  {"delta", Value(rng->NextInt(0, 1000))}};

    CollectSink ref_sink, plan_sink;
    ProcessRuntime ref_rt, plan_rt;
    ref_rt.info = plan_rt.info = {"host", "fuzz", 1};
    ref_rt.sink = &ref_sink;
    plan_rt.sink = &plan_sink;
    ExecutionContext ref_ctx(&ref_rt), plan_ctx(&plan_rt);
    ref_ctx.set_baggage(seed_baggage);
    plan_ctx.set_baggage(seed_baggage);

    advice->Execute(&ref_ctx, exports);
    plan->Execute(&plan_ctx, exports);

    ASSERT_EQ(ref_sink.emitted.size(), plan_sink.emitted.size());
    for (size_t i = 0; i < ref_sink.emitted.size(); ++i) {
      EXPECT_EQ(ref_sink.emitted[i].first, plan_sink.emitted[i].first);
      EXPECT_EQ(ref_sink.emitted[i].second, plan_sink.emitted[i].second);
    }

    std::vector<uint8_t> ref_bytes = ref_ctx.baggage().Serialize();
    std::vector<uint8_t> plan_bytes = plan_ctx.baggage().Serialize();
    EXPECT_EQ(ref_bytes, plan_bytes);

    // Round trip under COW: deserializing seeds per-instance caches from the
    // wire, and re-serializing must reproduce the bytes exactly.
    Result<Baggage> round = Baggage::Deserialize(plan_bytes);
    ASSERT_TRUE(round.ok());
    EXPECT_EQ((*round).Serialize(), plan_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanEquivalenceFuzz,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST(AdviceVerifierGate, VerifierRejectsDegenerateDecodes) {
  // The one guarantee the fuzzers cannot assert generically: a decode that
  // yields an *empty* program (the most common "successful" garbage decode)
  // must be rejected by analysis, never woven.
  Advice::Ptr empty = AdviceBuilder().Build();
  std::vector<std::pair<std::string, Advice::Ptr>> stages;
  stages.emplace_back("tp", empty);
  auto lint = QueryLinter().Lint(1, stages, ResultPlan{});
  EXPECT_TRUE(lint.report.Has("PT101"));
  EXPECT_TRUE(lint.report.has_errors());

  // Null advice (a stage that failed to decode at all) is likewise fatal.
  std::vector<std::pair<std::string, Advice::Ptr>> null_stage;
  null_stage.emplace_back("tp", nullptr);
  auto null_lint = QueryLinter().Lint(1, null_stage, ResultPlan{});
  EXPECT_TRUE(null_lint.report.Has("PT101"));
  EXPECT_TRUE(null_lint.report.has_errors());
}

}  // namespace
}  // namespace pivot
