// Tests for the extension features: tracepoint glob patterns (§5 pointcuts),
// the §4 "explain" tuple-counting mode, and advice-level sampling (§8).

#include <gtest/gtest.h>

#include "src/agent/agent.h"
#include "src/agent/frontend.h"
#include "src/analysis/query_linter.h"
#include "src/bus/message_bus.h"
#include "src/query/compiler.h"
#include "src/query/parser.h"
#include "tests/test_util.h"

namespace pivot {
namespace {

// ---------------------------------------------------------------------------
// Glob matching

TEST(PatternMatchTest, Basics) {
  EXPECT_TRUE(TracepointPatternMatch("DN.*", "DN.DataTransferProtocol"));
  EXPECT_TRUE(TracepointPatternMatch("DN.*", "DN.DataTransferProtocol.done"));
  EXPECT_FALSE(TracepointPatternMatch("DN.*", "NN.GetBlockLocations"));
  EXPECT_TRUE(TracepointPatternMatch("*.incrBytesRead", "DataNodeMetrics.incrBytesRead"));
  EXPECT_TRUE(TracepointPatternMatch("*", "anything.at.all"));
  EXPECT_TRUE(TracepointPatternMatch("a*c", "abc"));
  EXPECT_TRUE(TracepointPatternMatch("a*c", "ac"));
  EXPECT_FALSE(TracepointPatternMatch("a*c", "acb"));
  EXPECT_TRUE(TracepointPatternMatch("a?c", "abc"));
  EXPECT_FALSE(TracepointPatternMatch("a?c", "ac"));
  EXPECT_TRUE(TracepointPatternMatch("exact", "exact"));
  EXPECT_FALSE(TracepointPatternMatch("exact", "exactly"));
  EXPECT_TRUE(TracepointPatternMatch("**", ""));
}

// ---------------------------------------------------------------------------
// Shared harness

TracepointDef Def(const std::string& name, std::vector<std::string> exports) {
  TracepointDef def;
  def.name = name;
  def.exports = std::move(exports);
  return def;
}

struct MiniProcess {
  TracepointRegistry registry;
  ProcessRuntime runtime;
  std::unique_ptr<PTAgent> agent;

  MiniProcess(MessageBus* bus, ManualClock* clock) {
    runtime.info.host = "H";
    runtime.info.process_name = "proc";
    runtime.now_micros = [clock] { return clock->now; };
    agent = std::make_unique<PTAgent>(bus, &registry, runtime.info);
    runtime.sink = agent.get();
  }
};

class FeaturesTest : public ::testing::Test {
 protected:
  FeaturesTest() : proc_(&bus_, &clock_), frontend_(&bus_, &schema_) {
    for (const auto& [name, exports] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"DN.Read", {"delta"}},
             {"DN.Write", {"delta"}},
             {"NN.Lookup", {"src"}},
             {"Client.Start", {"user"}}}) {
      EXPECT_TRUE(schema_.Define(Def(name, exports)).ok());
      tps_[name] = *proc_.registry.Define(Def(name, exports));
    }
  }

  void Fire(const std::string& tp, ExecutionContext* ctx, int64_t delta) {
    clock_.Tick(10);
    tps_[tp]->Invoke(ctx, {{"delta", Value(delta)}, {"user", Value("u")}, {"src", Value("f")}});
  }

  ManualClock clock_;
  MessageBus bus_;
  TracepointRegistry schema_;
  MiniProcess proc_;
  Frontend frontend_;
  std::map<std::string, Tracepoint*> tps_;
};

// ---------------------------------------------------------------------------
// Glob patterns in queries

TEST_F(FeaturesTest, GlobSourceExpandsToUnion) {
  Result<uint64_t> q = frontend_.Install(
      "From e In DN.* GroupBy e.tracepoint Select e.tracepoint, SUM(e.delta)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  ExecutionContext ctx(&proc_.runtime);
  Fire("DN.Read", &ctx, 5);
  Fire("DN.Write", &ctx, 7);
  Fire("NN.Lookup", &ctx, 100);  // Must NOT match.
  proc_.agent->Flush(clock_.Tick(1'000'000));

  EXPECT_EQ(CanonicalTuples(frontend_.Results(*q)),
            (std::vector<std::string>{"(e.tracepoint=DN.Read, SUM(e.delta)=5)",
                                      "(e.tracepoint=DN.Write, SUM(e.delta)=7)"}));
}

TEST_F(FeaturesTest, GlobInJoinSource) {
  Result<uint64_t> q = frontend_.Install(
      "From n In NN.Lookup Join d In First(Client.*) On d -> n Select COUNT");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ExecutionContext ctx(&proc_.runtime);
  Fire("Client.Start", &ctx, 1);
  Fire("NN.Lookup", &ctx, 1);
  proc_.agent->Flush(clock_.Tick(1'000'000));
  ASSERT_EQ(frontend_.Results(*q).size(), 1u);
  EXPECT_EQ(frontend_.Results(*q)[0].Get("COUNT").int_value(), 1);
}

TEST_F(FeaturesTest, GlobWithNoMatchesRejected) {
  Result<uint64_t> q = frontend_.Install("From e In ZZZ.* Select COUNT");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kNotFound);
}

TEST(PatternParserTest, StarSegmentsParse) {
  Result<Query> q = ParseQuery("From e In DN.* Select COUNT");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->from.tracepoints[0], "DN.*");
  Result<Query> q2 = ParseQuery("From e In *.incrBytesRead Select COUNT");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->from.tracepoints[0], "*.incrBytesRead");
}

// ---------------------------------------------------------------------------
// Explain / tuple counting (§4)

TEST_F(FeaturesTest, ExplainCountsPackAndEmitTuples) {
  Result<uint64_t> q = frontend_.InstallExplain(
      "From d In DN.Read Join c In First(Client.Start) On c -> d "
      "GroupBy c.user Select c.user, SUM(d.delta)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  for (int r = 0; r < 3; ++r) {
    ExecutionContext ctx(&proc_.runtime);
    Fire("Client.Start", &ctx, 0);
    Fire("Client.Start", &ctx, 0);  // FIRST: second pack attempt still counted.
    Fire("DN.Read", &ctx, 10);
    Fire("DN.Read", &ctx, 20);
  }
  proc_.agent->Flush(clock_.Tick(1'000'000));

  std::map<std::string, int64_t> counts;
  for (const Tuple& row : frontend_.Results(*q)) {
    counts[row.Get("$stage").string_value()] = row.Get("COUNT").int_value();
  }
  // Pack counts the tuples *offered* to the bag (6 = 2 per request), emit the
  // joined tuples reaching the final stage (6 = 2 reads x 1 FIRST tuple).
  EXPECT_EQ(counts["pack@Client.Start"], 6);
  EXPECT_EQ(counts["emit@DN.Read"], 6);
}

TEST_F(FeaturesTest, ExplainShadowCoexistsWithRealQuery) {
  std::string text =
      "From d In DN.Read Join c In First(Client.Start) On c -> d "
      "GroupBy c.user Select c.user, SUM(d.delta)";
  Result<uint64_t> real = frontend_.Install(text);
  Result<uint64_t> shadow = frontend_.InstallExplain(text);
  ASSERT_TRUE(real.ok());
  ASSERT_TRUE(shadow.ok());

  ExecutionContext ctx(&proc_.runtime);
  Fire("Client.Start", &ctx, 0);
  Fire("DN.Read", &ctx, 10);
  proc_.agent->Flush(clock_.Tick(1'000'000));

  // The real query's answer is unaffected by the shadow's parallel packing.
  auto rows = frontend_.Results(*real);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get("SUM(d.delta)").int_value(), 10);
  EXPECT_FALSE(frontend_.Results(*shadow).empty());
}

TEST(PackRetentionTest, ClassifiesBounds) {
  TracepointRegistry registry;
  ASSERT_TRUE(registry.Define(Def("A", {"x"})).ok());
  ASSERT_TRUE(registry.Define(Def("B", {"y"})).ok());
  QueryCompiler compiler(&registry, nullptr);

  auto compile = [&](const char* text) {
    Result<Query> q = ParseQuery(text);
    EXPECT_TRUE(q.ok());
    Result<CompiledQuery> cq = compiler.Compile(*q, 1);
    EXPECT_TRUE(cq.ok()) << cq.status().ToString();
    return std::move(cq).value();
  };

  // The pack's retention comes from the compiled BagSpec (Explain renders
  // it); the cost class from the linter, as pivot_lint prints it.
  auto pack_spec = [](const CompiledQuery& cq) {
    std::vector<BagSpec> specs;
    for (const auto& [tp, adv] : cq.advice) {
      for (const Advice::Op& op : adv->ops()) {
        if (op.kind == Advice::OpKind::kPack) {
          specs.push_back(op.bag_spec);
        }
      }
    }
    EXPECT_EQ(specs.size(), 1u);
    return specs.empty() ? BagSpec{} : specs[0];
  };
  auto cost = [](const CompiledQuery& cq) {
    return analysis::QueryLinter().Lint(cq.query_id, cq.advice, cq.plan).cost;
  };

  auto first = compile("From b In B Join a In First(A) On a -> b Select a.x, b.y");
  EXPECT_TRUE(pack_spec(first) == BagSpec::First());
  EXPECT_EQ(cost(first), analysis::BaggageCost::kBounded);

  auto recent = compile("From b In B Join a In MostRecentN(3, A) On a -> b Select a.x, b.y");
  EXPECT_TRUE(pack_spec(recent) == BagSpec::Recent(3));
  EXPECT_EQ(cost(recent), analysis::BaggageCost::kBounded);

  auto agg = compile("From b In B Join a In A On a -> b Select SUM(a.x)");
  EXPECT_EQ(pack_spec(agg).semantics, PackSemantics::kAggregate);
  EXPECT_TRUE(pack_spec(agg).plan.group_fields.empty());
  EXPECT_EQ(cost(agg), analysis::BaggageCost::kBounded);

  auto unbounded = compile("From b In B Join a In A On a -> b Select a.x, b.y");
  EXPECT_TRUE(pack_spec(unbounded) == BagSpec::All());
  EXPECT_EQ(cost(unbounded), analysis::BaggageCost::kUnbounded);
}

// ---------------------------------------------------------------------------
// Sampling (§8)

TEST(SampleParserTest, IntIsPercentDoubleIsFraction) {
  Result<Query> q = ParseQuery("From e In Sample(10, X) Select COUNT");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_DOUBLE_EQ(q->from.sample_rate, 0.10);

  Result<Query> q2 = ParseQuery("From e In Sample(0.25, X) Select COUNT");
  ASSERT_TRUE(q2.ok());
  EXPECT_DOUBLE_EQ(q2->from.sample_rate, 0.25);

  // Composes with temporal wrappers.
  Result<Query> q3 = ParseQuery("From b In Y Join a In Sample(5, First(X)) On a -> b Select COUNT");
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  EXPECT_DOUBLE_EQ(q3->joins[0].source.sample_rate, 0.05);
  EXPECT_EQ(q3->joins[0].source.temporal, TemporalFilter::kFirst);
}

TEST(SampleParserTest, RoundTrips) {
  Result<Query> q = ParseQuery("From e In Sample(0.25, MostRecent(X)) Select e.host");
  ASSERT_TRUE(q.ok());
  std::string rendered = QueryToString(*q);
  Result<Query> again = ParseQuery(rendered);
  ASSERT_TRUE(again.ok()) << rendered;
  EXPECT_DOUBLE_EQ(again->from.sample_rate, 0.25);
}

TEST(SampleParserTest, BadRatesRejected) {
  EXPECT_FALSE(ParseQuery("From e In Sample(0.0, X) Select COUNT").ok());
  EXPECT_FALSE(ParseQuery("From e In Sample(150, X) Select COUNT").ok());
  EXPECT_FALSE(ParseQuery("From e In Sample(X) Select COUNT").ok());
}

TEST_F(FeaturesTest, SamplingReducesEmittedTuples) {
  Result<uint64_t> q = frontend_.Install("From d In Sample(20, DN.Read) Select COUNT");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  constexpr int kInvocations = 5000;
  ExecutionContext ctx(&proc_.runtime);
  for (int i = 0; i < kInvocations; ++i) {
    Fire("DN.Read", &ctx, 1);
  }
  proc_.agent->Flush(clock_.Tick(1'000'000));

  auto rows = frontend_.Results(*q);
  ASSERT_EQ(rows.size(), 1u);
  int64_t count = rows[0].Get("COUNT").int_value();
  // 20% of 5000 = 1000; allow generous tolerance.
  EXPECT_GT(count, 700);
  EXPECT_LT(count, 1300);
}

TEST_F(FeaturesTest, SampledAdviceListsSampleOp) {
  Result<uint64_t> q = frontend_.Install("From d In Sample(0.5, DN.Read) Select COUNT");
  ASSERT_TRUE(q.ok());
  const CompiledQuery* cq = frontend_.compiled(*q);
  ASSERT_NE(cq, nullptr);
  EXPECT_NE(cq->advice[0].second->ToString().find("SAMPLE 0.5"), std::string::npos);
}

TEST(SampleAdviceTest, RateOneNeverDrops) {
  // sample_rate == 1.0 compiles to no Sample op at all.
  TracepointRegistry registry;
  ASSERT_TRUE(registry.Define(Def("X", {"v"})).ok());
  QueryCompiler compiler(&registry, nullptr);
  Result<Query> q = ParseQuery("From e In Sample(100, X) Select COUNT");
  ASSERT_TRUE(q.ok());
  Result<CompiledQuery> cq = compiler.Compile(*q, 1);
  ASSERT_TRUE(cq.ok());
  for (const auto& op : cq->advice[0].second->ops()) {
    EXPECT_NE(op.kind, Advice::OpKind::kSample);
  }
}

}  // namespace
}  // namespace pivot
