// Property-based equivalence: the optimized, baggage-based inline evaluation
// of happened-before joins (Fig 6b) must produce exactly the same results as
// naive global evaluation over the recorded execution DAG (Fig 6a), across
// randomized executions (linear and branching) and a pool of representative
// queries exercising joins, chains, temporal filters, Where clauses, and all
// the §4 rewrites (projection / selection / aggregation pushdown).

#include <gtest/gtest.h>

#include <algorithm>
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
    "From b In B",
    "From b In B Join a In A On a -> b",
    "From c In C Join b In B On b -> c Join a In A On a -> b",
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

  MiniProcess(MessageBus* bus, ManualClock* clock, std::string host,
              const std::vector<TracepointDef>& defs) {
    runtime.info.host = std::move(host);
    runtime.info.process_name = "proc-" + runtime.info.host;
    runtime.now_micros = [clock] { return clock->now; };
    agent = std::make_unique<PTAgent>(bus, &registry, runtime.info);
    runtime.sink = agent.get();
    for (const TracepointDef& def : defs) {
      EXPECT_TRUE(registry.Define(def).ok());
    }
  }
};

std::vector<TracepointDef> ABCDDefs() {
  std::vector<TracepointDef> defs;
  for (const char* tp : kTracepoints) {
    defs.push_back(Def(tp));
  }
  return defs;
}

class EquivalenceHarness {
 public:
  explicit EquivalenceHarness(uint64_t seed) : rng_(seed), frontend_(&bus_, &schema_) {
    for (const char* tp : kTracepoints) {
      EXPECT_TRUE(schema_.Define(Def(tp)).ok());
    }
    for (int i = 0; i < 3; ++i) {
      processes_.push_back(std::make_unique<MiniProcess>(
          &bus_, &clock_, std::string(1, static_cast<char>('P' + i)), ABCDDefs()));
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
  const QueryCompiler::Options no_opt{.pushdown = false};

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

// ---------------------------------------------------------------------------
// Bags shared across queries. The §6.1 session's Q4-Q7 all pack st.host at
// StressTest.DoNextOp; the frontend gives their equal pack stages one bag
// key and the registry weaves one pack plan for them. Installs and
// uninstalls happen between requests; after every step each live query must
// still match naive evaluation of that step's requests.

const char* const kSharingQueries[] = {
    // Q4
    "From getloc In NN.GetBlockLocations Join st In StressTest.DoNextOp On st -> getloc "
    "GroupBy st.host, getloc.src Select st.host, getloc.src, COUNT",
    // Q5
    "From getloc In NN.GetBlockLocations Join st In StressTest.DoNextOp On st -> getloc "
    "GroupBy st.host, getloc.replicas Select st.host, getloc.replicas, COUNT",
    // Q6
    "From DNop In DN.DataTransferProtocol Join st In StressTest.DoNextOp On st -> DNop "
    "GroupBy st.host, DNop.host Select st.host, DNop.host, COUNT",
    // Q7
    "From DNop In DN.DataTransferProtocol Join getloc In NN.GetBlockLocations On getloc -> DNop "
    "Join st In StressTest.DoNextOp On st -> getloc Where st.host != DNop.host "
    "GroupBy DNop.host, getloc.replicas Select DNop.host, getloc.replicas, COUNT",
};
constexpr const char* kDoNextOp = "StressTest.DoNextOp";

std::vector<TracepointDef> HdfsDefs() {
  TracepointDef getloc;
  getloc.name = "NN.GetBlockLocations";
  getloc.exports = {"src", "replicas"};
  TracepointDef dnop;
  dnop.name = "DN.DataTransferProtocol";
  TracepointDef op;
  op.name = kDoNextOp;
  return {getloc, dnop, op};
}

// The bag key a query's advice packs at DoNextOp.
BagKey DoNextOpBag(const CompiledQuery& compiled) {
  for (const auto& [tp, adv] : compiled.advice) {
    for (const Advice::Op& op : adv->ops()) {
      if (tp == kDoNextOp && op.kind == Advice::OpKind::kPack) {
        return op.bag;
      }
    }
  }
  ADD_FAILURE() << "no pack at " << kDoNextOp;
  return 0;
}

class SharingDeployment {
 public:
  explicit SharingDeployment(uint64_t seed) : rng_(seed), frontend_(&bus_, &schema_) {
    for (const TracepointDef& def : HdfsDefs()) {
      EXPECT_TRUE(schema_.Define(def).ok());
    }
    for (const char* host : {"host-3", "host-4", "host-5"}) {
      processes_.push_back(std::make_unique<MiniProcess>(&bus_, &clock_, host, HdfsDefs()));
    }
  }

  Frontend& frontend() { return frontend_; }
  const std::vector<std::unique_ptr<MiniProcess>>& processes() const { return processes_; }

  void Fire(ExecutionContext* ctx, MiniProcess& proc, const std::string& tp_name) {
    std::vector<uint8_t> wire = ctx->baggage().Serialize();
    Result<Baggage> baggage = Baggage::Deserialize(wire);
    ASSERT_TRUE(baggage.ok());
    ctx->set_baggage(std::move(baggage).value());
    ctx->set_runtime(&proc.runtime);
    clock_.Tick(1000);
    proc.registry.Find(tp_name)->Invoke(
        ctx, {{"src", Value(rng_.NextBool(0.5) ? "/a" : "/b")}, {"replicas", Value(rng_.NextInt(1, 3))}});
  }

  // One request: random tracepoints in random processes, with branches.
  void RunSegment(ExecutionContext* ctx, int depth) {
    static const std::vector<TracepointDef> defs = HdfsDefs();
    int len = static_cast<int>(1 + rng_.NextBelow(6));
    for (int i = 0; i < len; ++i) {
      if (depth < 2 && rng_.NextBool(0.25)) {
        ExecutionContext branch = ctx->Fork();
        RunSegment(&branch, depth + 1);
        RunSegment(ctx, depth + 1);
        ctx->Join(std::move(branch));
      } else {
        Fire(ctx, *processes_[rng_.NextBelow(processes_.size())],
             defs[rng_.NextBelow(defs.size())].name);
      }
    }
  }

  // Flushes every agent; returns the interval's report timestamp.
  int64_t FlushAll() {
    clock_.Tick(1'000'000);
    for (auto& proc : processes_) {
      proc->agent->Flush(clock_.now);
    }
    return clock_.now;
  }

  // Runs a batch of requests recorded into `recorder`, then flushes.
  int64_t RunBatch(TraceRecorder* recorder) {
    for (int r = 0; r < 8; ++r) {
      ExecutionContext ctx(&processes_[0]->runtime);
      ctx.StartTrace(recorder);
      RunSegment(&ctx, 0);
    }
    return FlushAll();
  }

 private:
  Rng rng_;
  ManualClock clock_;
  MessageBus bus_;
  TracepointRegistry schema_;
  Frontend frontend_;
  std::vector<std::unique_ptr<MiniProcess>> processes_;
};

// After an install or uninstall: one batch of requests, then every live
// query's interval against naive evaluation of exactly that batch. Returns
// the number of rows compared.
size_t CheckStep(SharingDeployment* d, const std::map<size_t, uint64_t>& live,
                 const std::string& step) {
  size_t compared = 0;
  TraceRecorder recorder;
  const int64_t ts = d->RunBatch(&recorder);
  for (const auto& [q, id] : live) {
    Result<NaiveResult> naive = EvaluateNaive(*ParseQuery(kSharingQueries[q]), recorder, nullptr);
    EXPECT_TRUE(naive.ok()) << naive.status().ToString();
    std::map<int64_t, std::vector<Tuple>> series = d->frontend().Series(id);
    std::vector<Tuple> rows = series.count(ts) != 0 ? series.at(ts) : std::vector<Tuple>{};
    EXPECT_EQ(CanonicalTuples(rows), CanonicalTuples(naive->rows))
        << step << ": Q" << q + 4 << " (query " << id << ")";
    compared += rows.size();
  }
  return compared;
}

TEST(SharedBagTest, OverlappingLifetimesMatchNaiveInEveryUninstallOrder) {
  std::vector<size_t> order{0, 1, 2, 3};
  int orders = 0;
  size_t compared = 0;
  do {
    SharingDeployment d(1000 + orders);
    std::map<size_t, uint64_t> live;  // Query index -> id.
    // The perfbench rotation's install order: Q5, Q6, Q4, Q7.
    for (size_t q : {size_t{1}, size_t{2}, size_t{0}, size_t{3}}) {
      Result<uint64_t> id = d.frontend().Install(kSharingQueries[q]);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      live[q] = *id;
      compared += CheckStep(&d, live, "install Q" + std::to_string(q + 4));
    }
    // Every query's DoNextOp stage packs Q5's key, the first one minted.
    const BagKey shared = DoNextOpBag(*d.frontend().compiled(live[1]));
    EXPECT_EQ(BagKeyQuery(shared), live[1]);
    for (const auto& [q, id] : live) {
      EXPECT_EQ(DoNextOpBag(*d.frontend().compiled(id)), shared) << "Q" << q + 4;
    }
    EXPECT_EQ(d.frontend().live_bags().at(shared).queries,
              (std::vector<uint64_t>{live[1], live[2], live[0], live[3]}));
    for (const auto& proc : d.processes()) {
      EXPECT_EQ(proc->registry.Find(kDoNextOp)->woven_plans(), 1u);
    }

    for (size_t q : order) {
      ASSERT_TRUE(d.frontend().Uninstall(live[q]).ok());
      live.erase(q);
      compared += CheckStep(&d, live, "uninstall Q" + std::to_string(q + 4));
    }
    // No shared pack outlives its last query.
    EXPECT_TRUE(d.frontend().live_bags().empty());
    for (const auto& proc : d.processes()) {
      EXPECT_TRUE(proc->registry.WovenQueries().empty());
      EXPECT_EQ(proc->registry.Find(kDoNextOp)->woven_plans(), 0u);
      EXPECT_FALSE(proc->registry.Find(kDoNextOp)->enabled());
    }
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 24);
  EXPECT_GT(compared, 1000u);  // The checks compared real rows.
}

TEST(SharedBagTest, FourQueriesCarryOneStHostBag) {
  SharingDeployment d(7);
  std::vector<uint64_t> ids;
  for (const char* text : kSharingQueries) {
    Result<uint64_t> id = d.frontend().Install(text);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  MiniProcess& client = *d.processes()[0];  // host-3.
  ExecutionContext ctx(&client.runtime);
  client.registry.Find(kDoNextOp)->Invoke(&ctx, {});

  // One 13 B bag, charged to Q4, its minting query: key 2 + row count,
  // dropped count and payload length 3 + the value "host-3" 8. Four
  // unshared bags were 4 x 13 B.
  Baggage::SerializeStats stats;
  std::vector<uint8_t> wire = ctx.baggage().Serialize(&stats);
  ASSERT_EQ(stats.queries.size(), 1u);
  EXPECT_EQ(stats.queries.begin()->first, ids[0]);
  EXPECT_EQ(stats.queries.begin()->second.bytes, 2u + 3 + 8);
  EXPECT_EQ(stats.queries.begin()->second.tuples, 1u);
  EXPECT_EQ(wire.size(), 4u + 13);

  // StatusReport lists the shared key under every query.
  const std::string json = d.frontend().StatusReportJson();
  const BagKey shared = DoNextOpBag(*d.frontend().compiled(ids[0]));
  EXPECT_NE(json.find("{\"key\":" + std::to_string(shared) + ",\"shared_with\":[" +
                      std::to_string(ids[1]) + "," + std::to_string(ids[2]) + "," +
                      std::to_string(ids[3]) + "]}"),
            std::string::npos)
      << json;
}

TEST(SharedBagTest, JoiningALiveBagSeesTuplesPackedBeforeInstall) {
  // The one semantic change sharing brings: a query joining a live bag sees
  // what requests already in flight at its install packed into it. Alone,
  // Q6 sees nothing of a request whose DoNextOp fired before its install.
  for (bool q5_live : {true, false}) {
    SCOPED_TRACE(q5_live ? "Q5 live" : "Q6 alone");
    SharingDeployment d(11);
    if (q5_live) {
      ASSERT_TRUE(d.frontend().Install(kSharingQueries[1]).ok());
    }
    MiniProcess& client = *d.processes()[0];
    MiniProcess& dn = *d.processes()[1];
    ExecutionContext ctx(&client.runtime);
    d.Fire(&ctx, client, kDoNextOp);
    Result<uint64_t> q6 = d.frontend().Install(kSharingQueries[2]);
    ASSERT_TRUE(q6.ok());
    d.Fire(&ctx, dn, "DN.DataTransferProtocol");
    d.FlushAll();
    std::vector<Tuple> rows = d.frontend().Results(*q6);
    if (q5_live) {
      ASSERT_EQ(rows.size(), 1u);
      EXPECT_EQ(rows[0].Get("st.host").string_value(), "host-3");
      EXPECT_EQ(rows[0].Get("DNop.host").string_value(), "host-4");
    } else {
      EXPECT_TRUE(rows.empty());
    }
  }
}

}  // namespace
}  // namespace pivot
