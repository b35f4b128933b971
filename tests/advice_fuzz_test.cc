// Property tests for the wire → verifier path: DecodeAdvice must never crash
// on mutated or garbage bytes, and whatever it does accept must survive
// AdviceVerifier/QueryLinter without crashing — the exact invariant the agent
// relies on when it re-verifies advice off the bus before weaving. Run under
// the sanitizer build (scripts/check.sh --sanitize=address) this doubles as
// the memory-safety proof for the decoder and the analyzer. The same random
// programs also check AdvicePlan, the one executor, against a by-name oracle.

#include <gtest/gtest.h>

#include "src/analysis/advice_verifier.h"
#include "src/analysis/query_linter.h"
#include "src/common/rand.h"
#include "src/core/advice.h"
#include "src/core/advice_io.h"
#include "src/core/context.h"
#include "src/core/plan.h"
#include "src/telemetry/metrics.h"

namespace pivot {
namespace {

using analysis::AdviceVerifier;
using analysis::QueryLinter;

// Bag keys of executable programs: a pool this small makes unpacks meet the
// packs before them.
constexpr uint64_t kExecutableBags = 4;

// Builds a random (structurally valid) advice program. Field names are drawn
// from a small pool so some programs read columns they produced and others
// read columns they did not — both sides of the PT102 check get exercised.
class AdviceGenerator {
 public:
  explicit AdviceGenerator(uint64_t seed) : rng_(seed) {}

  // `executable` restricts Sample rates to {0, >=1}, which decide without
  // consuming the shared sampling counter — required when the same program
  // runs down two executors that must agree tuple-for-tuple — and draws bag
  // keys below kExecutableBags.
  Advice::Ptr Random(bool executable = false) {
    uint64_t bags = executable ? kExecutableBags : 4 * kBagKeysPerQuery;
    AdviceBuilder b;
    if (rng_.NextBool(0.3)) {
      b.Sample(executable
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
          b.Unpack(rng_.NextBelow(bags));
          break;
        case 2:
          b.Let(Name(), RandomExpr(2));
          break;
        case 3:
          b.Filter(RandomExpr(2));
          break;
        case 4:
          b.Pack(rng_.NextBelow(bags), RandomSpec(), RandomFields());
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

// ---- Plan against a by-name oracle ----
//
// AdvicePlan is the one advice executor. The oracle below re-derives Table 2's
// semantics from the name-form Advice alone: its rows are plain (column name,
// Value) lists and every lookup compares names, so it shares neither symbol
// binding nor Tuple's id-based Get/Project/Concat with the plan. It meets the
// library only at Value arithmetic and at the Baggage Pack/Unpack boundary.
// Both sides must agree on the emitted (query, row) sequence, value types
// included, on the serialized baggage bytes, on the bytes' Deserialize/
// Serialize round trip, and on the number of truncated executions. Sampling
// in (0,1) draws from the plan's fire sequence, so programs here use only
// rates that decide without it.

using Row = std::vector<std::pair<std::string, Value>>;
using Emitted = std::vector<std::pair<uint64_t, Row>>;

Value Lookup(const Row& row, const std::string& name) {
  for (const auto& [column, value] : row) {
    if (column == name) {
      return value;
    }
  }
  return Value();
}

Row Project(const Row& row, const std::vector<std::string>& names) {
  Row out;
  for (const auto& name : names) {
    out.emplace_back(name, Lookup(row, name));
  }
  return out;
}

Row ToRow(const Tuple& t) {
  Row row;
  for (const auto& f : t.fields()) {
    row.emplace_back(std::string(f.name()), f.value);
  }
  return row;
}

Tuple ToTuple(const Row& row) {
  Tuple t;
  for (const auto& [column, value] : row) {
    t.Append(column, value);
  }
  return t;
}

Value EvalByName(const Expr& e, const Row& row) {
  auto lhs = [&] { return EvalByName(*e.lhs(), row); };
  auto rhs = [&] { return EvalByName(*e.rhs(), row); };
  switch (e.op()) {
    case ExprOp::kLiteral:
      return e.literal();
    case ExprOp::kField:
      return Lookup(row, e.field_name());
    case ExprOp::kAdd:
      return ValueAdd(lhs(), rhs());
    case ExprOp::kSub:
      return ValueSub(lhs(), rhs());
    case ExprOp::kMul:
      return ValueMul(lhs(), rhs());
    case ExprOp::kDiv:
      return ValueDiv(lhs(), rhs());
    case ExprOp::kMod:
      return ValueMod(lhs(), rhs());
    case ExprOp::kEq:
      return Value(int64_t{lhs() == rhs()});
    case ExprOp::kNe:
      return Value(int64_t{lhs() != rhs()});
    case ExprOp::kLt:
      return Value(int64_t{lhs() < rhs()});
    case ExprOp::kLe:
      return Value(int64_t{!(rhs() < lhs())});
    case ExprOp::kGt:
      return Value(int64_t{rhs() < lhs()});
    case ExprOp::kGe:
      return Value(int64_t{!(lhs() < rhs())});
    case ExprOp::kAnd:
      return Value(int64_t{lhs().AsBool() && rhs().AsBool()});
    case ExprOp::kOr:
      return Value(int64_t{lhs().AsBool() || rhs().AsBool()});
    case ExprOp::kNot:
      return Value(int64_t{!lhs().AsBool()});
    case ExprOp::kNeg:
      return ValueSub(Value(int64_t{0}), lhs());
  }
  return Value();
}

// Runs `advice` by name; returns the number of truncated unpack joins.
int RunOracle(const Advice& advice, const Row& exports, Baggage* baggage, Emitted* emitted) {
  int truncations = 0;
  std::vector<Row> working(1);  // One empty row, so a leading Observe yields it.
  for (const Advice::Op& op : advice.ops()) {
    switch (op.kind) {
      case Advice::OpKind::kSample:
        EXPECT_TRUE(op.sample_rate <= 0.0 || op.sample_rate >= 1.0);
        if (op.sample_rate < 1.0) {
          return truncations;
        }
        break;
      case Advice::OpKind::kObserve:
        for (auto& w : working) {
          for (const auto& [from, to] : op.observe) {
            w.emplace_back(to, Lookup(exports, from));
          }
        }
        break;
      case Advice::OpKind::kUnpack: {
        std::vector<Row> unpacked;
        std::vector<Tuple> buffer;
        for (const Tuple& t : baggage->Unpack(op.bag, nullptr, &buffer)) {
          unpacked.push_back(ToRow(t));
        }
        std::vector<Row> joined;
        bool truncated = false;
        for (size_t i = 0; i < working.size() && !truncated; ++i) {
          for (size_t j = 0; j < unpacked.size() && !truncated; ++j) {
            truncated = joined.size() == AdvicePlan::kMaxWorkingSet;
            if (!truncated) {
              joined.push_back(working[i]);
              joined.back().insert(joined.back().end(), unpacked[j].begin(), unpacked[j].end());
            }
          }
        }
        truncations += truncated ? 1 : 0;
        working = std::move(joined);
        break;
      }
      case Advice::OpKind::kLet:
        for (auto& w : working) {
          Value v = EvalByName(*op.expr, w);
          w.emplace_back(op.let_name, std::move(v));
        }
        break;
      case Advice::OpKind::kFilter: {
        std::vector<Row> kept;
        for (auto& w : working) {
          if (EvalByName(*op.expr, w).AsBool()) {
            kept.push_back(std::move(w));
          }
        }
        working = std::move(kept);
        break;
      }
      case Advice::OpKind::kPack:
        for (const auto& w : working) {
          bool project = op.bag_spec.semantics != PackSemantics::kAggregate;
          baggage->Pack(op.bag, op.bag_spec, ToTuple(project ? Project(w, op.fields) : w));
        }
        break;
      case Advice::OpKind::kEmit:
        for (const auto& w : working) {
          emitted->emplace_back(op.query_id, op.fields.empty() ? w : Project(w, op.fields));
        }
        break;
    }
    if (working.empty()) {
      break;
    }
  }
  return truncations;
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || a[i].second.type() != b[i].second.type() ||
        a[i].second != b[i].second) {
      return false;
    }
  }
  return true;
}

std::string Render(const Row& row) { return ToTuple(row).ToString(); }

class CollectSink : public EmitSink {
 public:
  void EmitTuple(uint64_t query_id, const Tuple& t) override {
    emitted.emplace_back(query_id, ToRow(t));
  }
  Emitted emitted;
};

class PlanEquivalenceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanEquivalenceFuzz, PlanMatchesReferenceInterpreter) {
  AdviceGenerator gen(GetParam() * 31337);
  Rng* rng = gen.rng();
  telemetry::Counter& truncations = telemetry::Metrics().GetCounter("advice.truncations");
  for (int trial = 0; trial < 60; ++trial) {
    Advice::Ptr advice = gen.Random(/*executable=*/true);
    AdvicePlan::Ptr plan = AdvicePlan::Compile(advice);
    ASSERT_NE(plan, nullptr);

    // Identical starting state on both sides: a few packed tuples, sometimes
    // split into an older instance, and now and then bags so large that any
    // two unpacks pass kMaxWorkingSet.
    Baggage seed_baggage;
    int packs = static_cast<int>(rng->NextBelow(4));
    for (int i = 0; i < packs; ++i) {
      seed_baggage.Pack(rng->NextBelow(kExecutableBags), BagSpec::All(),
                        Tuple{{"t.host", Value(rng->NextInt(0, 5))},
                              {"t.delta", Value(rng->NextInt(-100, 100))}});
    }
    if (rng->NextBool(0.3)) {
      seed_baggage = seed_baggage.Split().first;
      seed_baggage.Pack(rng->NextBelow(kExecutableBags), BagSpec::All(),
                        Tuple{{"t.x", Value(rng->NextInt(-5, 5))}});
    }
    if (rng->NextBool(0.15)) {
      for (BagKey bag = 0; bag < kExecutableBags; ++bag) {
        for (int64_t i = 0; i < 260; ++i) {  // 260 * 260 > kMaxWorkingSet.
          seed_baggage.Pack(bag, BagSpec::All(),
                            Tuple{{bag % 2 == 0 ? "t.y" : "t.q", Value(i)}});
        }
      }
    }
    Row exports{{"x", Value(rng->NextInt(-5, 5))},
                {"host", Value("h" + std::to_string(rng->NextBelow(3)))},
                {"delta", Value(rng->NextInt(0, 1000))}};

    Baggage oracle_baggage = seed_baggage;
    Emitted oracle_emitted;
    int oracle_truncations = RunOracle(*advice, exports, &oracle_baggage, &oracle_emitted);

    CollectSink sink;
    ProcessRuntime rt;
    rt.info = {"host", "fuzz", 1};
    rt.sink = &sink;
    ExecutionContext ctx(&rt);
    ctx.set_baggage(seed_baggage);
    uint64_t before = truncations.value();
    plan->Execute(&ctx, ToTuple(exports));

    SCOPED_TRACE(advice->ToString());
    EXPECT_EQ(truncations.value() - before, static_cast<uint64_t>(oracle_truncations));
    ASSERT_EQ(sink.emitted.size(), oracle_emitted.size());
    for (size_t i = 0; i < oracle_emitted.size(); ++i) {
      ASSERT_EQ(sink.emitted[i].first, oracle_emitted[i].first) << "emit " << i;
      ASSERT_TRUE(SameRow(sink.emitted[i].second, oracle_emitted[i].second))
          << "emit " << i << ": plan " << Render(sink.emitted[i].second) << " oracle "
          << Render(oracle_emitted[i].second);
    }

    std::vector<uint8_t> plan_bytes = ctx.baggage().Serialize();
    EXPECT_EQ(plan_bytes, oracle_baggage.Serialize());

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
