// Property-based equivalence: the optimized, baggage-based inline evaluation
// of happened-before joins (Fig 6b) must produce exactly the same results as
// naive global evaluation over the recorded execution DAG (Fig 6a), across
// randomized executions (linear and branching) and a pool of representative
// queries exercising joins, chains, temporal filters, Where clauses, and all
// the §4 rewrites (projection / selection / aggregation pushdown).

#include <gtest/gtest.h>

#include <memory>

#include "src/agent/agent.h"
#include "src/agent/frontend.h"
#include "src/bus/message_bus.h"
#include "src/common/rand.h"
#include "src/query/compiler.h"
#include "src/query/naive_eval.h"
#include "src/query/parser.h"
#include "tests/test_util.h"

namespace pivot {
namespace {

constexpr const char* kTracepoints[] = {"A", "B", "C", "D"};

// Queries safe on branching executions (no temporal filters: FIRST/RECENT
// tie-breaking between concurrent branches is implementation-defined).
const char* kBranchSafeQueries[] = {
    "From b In B Join a In A On a -> b GroupBy a.x Select a.x, SUM(b.y)",
    "From b In B Join a In A On a -> b Select COUNT",
    "From c In C Join b In B On b -> c Join a In A On a -> b Where a.x != c.x "
    "GroupBy a.x, c.x Select a.x, c.x, COUNT",
    "From d In D Join a In A On a -> d Select SUM(a.x)",
    "From b In B Select b.x",
    "From b In B Join a In A On a -> b Where a.x == b.x Select COUNT",
    "From c In C Join a In A On a -> c Join b In B On b -> c "
    "GroupBy a.x, b.x Select a.x, b.x, COUNT",
    "From b In B, D Join a In A On a -> b GroupBy a.y Select a.y, COUNT",
    "From b In B Join a In A On a -> b GroupBy a.x, b.x Select a.x, b.x, AVERAGE(b.y)",
};

// Additional queries valid only on linear executions.
const char* kLinearOnlyQueries[] = {
    "From b In B Join a In First(A) On a -> b GroupBy a.y Select a.y, COUNT",
    "From b In B Join a In MostRecent(A) On a -> b Select a.x, b.x",
    "From c In C Join b In MostRecent(B) On b -> c Join a In First(A) On a -> b "
    "Select a.x, b.x, c.x",
    "From b In B Join a In FirstN(2, A) On a -> b Select COUNT",
    "From b In B Join a In MostRecentN(2, A) On a -> b GroupBy a.x Select a.x, COUNT",
};

TracepointDef Def(const std::string& name) {
  TracepointDef def;
  def.name = name;
  def.exports = {"x", "y"};
  return def;
}

struct MiniProcess {
  TracepointRegistry registry;
  ProcessRuntime runtime;
  std::unique_ptr<PTAgent> agent;

  MiniProcess(MessageBus* bus, ManualClock* clock, std::string host) {
    runtime.info.host = std::move(host);
    runtime.info.process_name = "proc-" + runtime.info.host;
    runtime.now_micros = [clock] { return clock->now; };
    agent = std::make_unique<PTAgent>(bus, &registry, runtime.info);
    runtime.sink = agent.get();
    for (const char* tp : kTracepoints) {
      EXPECT_TRUE(registry.Define(Def(tp)).ok());
    }
  }
};

class EquivalenceHarness {
 public:
  explicit EquivalenceHarness(uint64_t seed) : rng_(seed), frontend_(&bus_, &schema_) {
    for (const char* tp : kTracepoints) {
      EXPECT_TRUE(schema_.Define(Def(tp)).ok());
    }
    for (int i = 0; i < 3; ++i) {
      processes_.push_back(
          std::make_unique<MiniProcess>(&bus_, &clock_, std::string(1, static_cast<char>('P' + i))));
    }
  }

  Frontend& frontend() { return frontend_; }
  TraceRecorder& recorder() { return recorder_; }
  Rng& rng() { return rng_; }

  // Fires a random tracepoint in a random process. The context hops across
  // the process boundary through the serialized wire format.
  void RandomInvocation(ExecutionContext* ctx) {
    MiniProcess& proc = *processes_[rng_.NextBelow(processes_.size())];
    // Cross the boundary: serialize + deserialize the baggage.
    std::vector<uint8_t> wire = ctx->baggage().Serialize();
    Result<Baggage> baggage = Baggage::Deserialize(wire);
    ASSERT_TRUE(baggage.ok());
    // Wire-seeded encoding caches must reproduce the received bytes exactly:
    // serializing an untouched deserialized baggage is a cache copy, and the
    // canonical encoder guarantees it equals what arrived.
    EXPECT_EQ((*baggage).Serialize(), wire);
    ctx->set_baggage(std::move(baggage).value());
    ctx->set_runtime(&proc.runtime);

    clock_.Tick(1000);
    const char* tp_name = kTracepoints[rng_.NextBelow(4)];
    Tracepoint* tp = proc.registry.Find(tp_name);
    tp->Invoke(ctx, {{"x", Value(rng_.NextInt(0, 3))}, {"y", Value(rng_.NextInt(-5, 5))}});
  }

  // Runs a segment of a request; may fork sub-branches when allowed.
  void RunSegment(ExecutionContext* ctx, bool allow_branches, int depth) {
    int len = static_cast<int>(1 + rng_.NextBelow(6));
    for (int i = 0; i < len; ++i) {
      if (allow_branches && depth < 2 && rng_.NextBool(0.25)) {
        ExecutionContext branch = ctx->Fork();
        RunSegment(&branch, allow_branches, depth + 1);
        RunSegment(ctx, allow_branches, depth + 1);
        ctx->Join(std::move(branch));
      } else {
        RandomInvocation(ctx);
      }
    }
  }

  void RunRequests(int count, bool allow_branches) {
    for (int r = 0; r < count; ++r) {
      ExecutionContext ctx(&processes_[0]->runtime);
      ctx.StartTrace(&recorder_);
      RunSegment(&ctx, allow_branches, 0);
    }
  }

  void FlushAll() {
    clock_.Tick(1'000'000);
    for (auto& proc : processes_) {
      proc->agent->Flush(clock_.now);
    }
  }

 private:
  Rng rng_;
  ManualClock clock_;
  MessageBus bus_;
  TracepointRegistry schema_;
  TraceRecorder recorder_;
  Frontend frontend_;
  std::vector<std::unique_ptr<MiniProcess>> processes_;
};

void CheckEquivalence(uint64_t seed, bool allow_branches,
                      const std::vector<const char*>& query_pool) {
  EquivalenceHarness harness(seed);

  std::vector<std::pair<uint64_t, const char*>> installed;
  for (const char* text : query_pool) {
    Result<uint64_t> id = harness.frontend().Install(text);
    ASSERT_TRUE(id.ok()) << text << ": " << id.status().ToString();
    installed.emplace_back(*id, text);
  }

  harness.RunRequests(static_cast<int>(5 + harness.rng().NextBelow(15)), allow_branches);
  harness.FlushAll();

  for (const auto& [id, text] : installed) {
    Result<Query> ast = ParseQuery(text);
    ASSERT_TRUE(ast.ok());
    Result<NaiveResult> naive = EvaluateNaive(*ast, harness.recorder(), nullptr);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();

    std::vector<Tuple> runtime_rows = harness.frontend().Results(id);
    EXPECT_EQ(CanonicalTuples(runtime_rows), CanonicalTuples(naive->rows))
        << "seed=" << seed << " branches=" << allow_branches << "\nquery: " << text;
  }
}

class LinearEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LinearEquivalenceTest, AllQueriesMatchNaive) {
  std::vector<const char*> pool(std::begin(kBranchSafeQueries), std::end(kBranchSafeQueries));
  pool.insert(pool.end(), std::begin(kLinearOnlyQueries), std::end(kLinearOnlyQueries));
  CheckEquivalence(GetParam(), /*allow_branches=*/false, pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

class BranchingEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BranchingEquivalenceTest, BranchSafeQueriesMatchNaive) {
  std::vector<const char*> pool(std::begin(kBranchSafeQueries), std::end(kBranchSafeQueries));
  CheckEquivalence(GetParam(), /*allow_branches=*/true, pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BranchingEquivalenceTest,
                         ::testing::Range(uint64_t{100}, uint64_t{115}));

// Named-subquery joins (the Q9 shape) run through the full runtime and must
// match naive evaluation with the same registered subquery.
class SubqueryEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubqueryEquivalenceTest, MatchesNaive) {
  EquivalenceHarness harness(GetParam());
  constexpr char kSub[] =
      "From b In B Join a In MostRecent(A) On a -> b Select b.y - a.y";
  constexpr char kOuter[] =
      "From d In D Join m In QSub On m -> d GroupBy d.x Select d.x, AVERAGE(m), COUNT";

  ASSERT_TRUE(harness.frontend().RegisterNamedQuery("QSub", kSub).ok());
  Result<uint64_t> id = harness.frontend().Install(kOuter);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  harness.RunRequests(12, /*allow_branches=*/false);
  harness.FlushAll();

  QueryRegistry named;
  ASSERT_TRUE(named.Register("QSub", *ParseQuery(kSub)).ok());
  Result<Query> outer_ast = ParseQuery(kOuter);
  ASSERT_TRUE(outer_ast.ok());
  Result<NaiveResult> naive = EvaluateNaive(*outer_ast, harness.recorder(), &named);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();

  EXPECT_EQ(CanonicalTuples(harness.frontend().Results(*id)), CanonicalTuples(naive->rows))
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubqueryEquivalenceTest,
                         ::testing::Range(uint64_t{300}, uint64_t{310}));

// The unoptimized compilation modes must also agree with ground truth: the
// §4 rewrites are pure optimizations, never semantic changes.
class AblationEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AblationEquivalenceTest, OptimizationsPreserveSemantics) {
  EquivalenceHarness harness(GetParam());
  QueryCompiler::Options no_opt;
  no_opt.push_projection = false;
  no_opt.push_selection = false;
  no_opt.push_aggregation = false;

  std::vector<std::pair<uint64_t, const char*>> installed;
  for (const char* text : kBranchSafeQueries) {
    Result<uint64_t> id = harness.frontend().Install(text, {.compiler = no_opt});
    ASSERT_TRUE(id.ok()) << text << ": " << id.status().ToString();
    installed.emplace_back(*id, text);
  }
  harness.RunRequests(10, /*allow_branches=*/true);
  harness.FlushAll();

  for (const auto& [id, text] : installed) {
    Result<Query> ast = ParseQuery(text);
    ASSERT_TRUE(ast.ok());
    Result<NaiveResult> naive = EvaluateNaive(*ast, harness.recorder(), nullptr);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(CanonicalTuples(harness.frontend().Results(id)), CanonicalTuples(naive->rows))
        << "seed=" << GetParam() << "\nquery: " << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AblationEquivalenceTest,
                         ::testing::Range(uint64_t{200}, uint64_t{210}));

}  // namespace
}  // namespace pivot
