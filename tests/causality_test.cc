// The causality-aware static analysis layer: the system propagation graph
// (src/analysis/causality_graph.h), the reachability primitives and topology
// audit (src/analysis/reachability.h), and the PT30x install/weave gates.
//
// The headline scenario is the one the paper hit in §6: a happened-before
// join whose baggage can never arrive. The seed behavior (no propagation
// model) installs such a query cleanly and silently returns zero tuples
// forever; with the model declared, the install is rejected with PT301 and a
// tampered weave carrying the same join is refused by every agent.

#include <gtest/gtest.h>

#include "src/agent/protocol.h"
#include "src/analysis/causality_graph.h"
#include "src/analysis/reachability.h"
#include "src/hadoop/cluster.h"
#include "src/hadoop/workloads.h"
#include "src/simsys/sim_rpc.h"
#include "src/simsys/sim_world.h"
#include "src/telemetry/metrics.h"

namespace pivot {
namespace {

using analysis::AuditTopology;
using analysis::PropagationEdge;
using analysis::PropagationRegistry;

TEST(PropagationRegistryTest, DeclarationsObservationsAndAnchors) {
  PropagationRegistry g;
  EXPECT_TRUE(g.empty());
  g.DeclareComponent("client", /*client_entry=*/true);
  // Components alone are not a model: the reachability passes stay off.
  EXPECT_TRUE(g.empty());

  analysis::DeclareRpcBoundary(&g, "client", "NN", "ClientProtocol");
  EXPECT_FALSE(g.empty());
  EXPECT_EQ(g.Edges().size(), 2u);  // rpc + rpc-response, both forwarding.
  analysis::DeclareRpcBoundary(&g, "client", "NN", "ClientProtocol");
  EXPECT_EQ(g.Edges().size(), 2u);  // Deduplicated by value.
  for (const PropagationEdge& e : g.Edges()) {
    EXPECT_TRUE(e.forwards_baggage);
  }

  g.AnchorTracepoint("NN.GetBlockLocations", "NN");
  g.AnchorTracepoint("multi.tp", "");  // Empty component: ignored.
  EXPECT_EQ(g.ComponentOf("NN.GetBlockLocations"), "NN");
  EXPECT_EQ(g.ComponentOf("multi.tp"), "");
  EXPECT_EQ(g.ComponentOf("never.heard.of"), "");

  g.ObserveEdge("client", "NN", "rpc");
  g.ObserveEdge("client", "NN", "rpc");  // Set semantics.
  g.ObserveEdge("", "NN", "rpc");        // Unmodelled endpoint: ignored.
  EXPECT_EQ(g.Observed().size(), 1u);

  std::string text = g.RenderText();
  EXPECT_NE(text.find("client  [client entry]"), std::string::npos);
  EXPECT_NE(text.find("NN.GetBlockLocations @ NN"), std::string::npos);
}

TEST(ReachabilityTest, ForwardingVsAnyEdgeAndLongestPath) {
  PropagationRegistry g;
  g.DeclareComponent("client", /*client_entry=*/true);
  g.DeclareEdge({"client", "FE", "rpc", "front door", /*forwards_baggage=*/true});
  g.DeclareEdge({"FE", "BE", "queue", "thread pool", /*forwards_baggage=*/false});
  g.DeclareEdge({"BE", "DB", "rpc", "store", /*forwards_baggage=*/true});

  EXPECT_TRUE(analysis::ForwardingReachable(g, "client", "FE"));
  EXPECT_TRUE(analysis::ForwardingReachable(g, "BE", "BE"));  // Reflexive.
  EXPECT_FALSE(analysis::ForwardingReachable(g, "client", "BE"));  // Queue drops.
  EXPECT_FALSE(analysis::ForwardingReachable(g, "client", "DB"));
  EXPECT_TRUE(analysis::AnyReachable(g, "client", "DB"));

  EXPECT_TRUE(analysis::HasClientEntry(g));
  EXPECT_TRUE(analysis::ReachableFromEntry(g, "client"));
  EXPECT_TRUE(analysis::ReachableFromEntry(g, "DB"));  // Any-edge reachability.
  EXPECT_FALSE(analysis::ReachableFromEntry(g, "ISLAND"));

  EXPECT_EQ(analysis::LongestForwardingPathFrom(g, "client"), 1u);
  EXPECT_EQ(analysis::LongestForwardingPathFrom(g, "BE"), 1u);
  EXPECT_EQ(analysis::LongestForwardingPathFrom(g, "DB"), 0u);
}

TEST(ReachabilityTest, AuditFlagsDropsUnreachablesAndUndeclared) {
  PropagationRegistry g;
  g.DeclareComponent("client", /*client_entry=*/true);
  g.DeclareEdge({"client", "FE", "rpc", "front door", /*forwards_baggage=*/true});
  g.DeclareEdge({"FE", "BE", "queue", "thread pool", /*forwards_baggage=*/false});
  g.AnchorTracepoint("island.tp", "ISLAND");
  g.ObserveEdge("FE", "CACHE", "rpc");  // Crossed at runtime, never declared.

  analysis::Report audit = AuditTopology(g);
  EXPECT_TRUE(audit.Has("PT302")) << audit.ToString();  // Baggage-dropping queue.
  EXPECT_TRUE(audit.Has("PT303")) << audit.ToString();  // ISLAND unreachable.
  EXPECT_TRUE(audit.Has("PT304")) << audit.ToString();  // FE -> CACHE undeclared.
  EXPECT_FALSE(audit.has_errors());  // The audit warns; per-query passes error.
}

TEST(ReachabilityTest, AuditSkipsPt303WithoutDeclaredEntries) {
  PropagationRegistry g;
  g.DeclareEdge({"FE", "BE", "rpc", "", /*forwards_baggage=*/true});
  g.AnchorTracepoint("island.tp", "ISLAND");
  EXPECT_FALSE(AuditTopology(g).Has("PT303"));
}

// Two processes in different components with no baggage-forwarding path
// between them — the minimal deployment where a `->` join can never deliver.
struct TwoTierWorld {
  SimWorld world;
  SimProcess* a = nullptr;
  SimProcess* b = nullptr;
  Tracepoint* src = nullptr;
  Tracepoint* dst = nullptr;

  TwoTierWorld() {
    SimHost* ha = world.AddHost("HA", 200e6, 125e6);
    SimHost* hb = world.AddHost("HB", 200e6, 125e6);
    a = world.AddProcess(ha, "frontend", "A");
    b = world.AddProcess(hb, "backend", "B");
    TracepointDef s;
    s.name = "src.tp";
    s.exports = {"x"};
    s.component = "A";
    src = a->DefineTracepoint(s);
    TracepointDef d;
    d.name = "dst.tp";
    d.exports = {"y"};
    d.component = "B";
    dst = b->DefineTracepoint(d);
  }
};

constexpr const char* kUnsatisfiableJoin =
    "From d In dst.tp Join s In src.tp On s -> d GroupBy s.x Select s.x, COUNT";

// The seed behavior this PR exists to kill: with no propagation model the
// join installs cleanly, the workload runs, and the query returns nothing —
// silently, forever.
TEST(CausalityGateTest, WithoutModelUnsatisfiableJoinInstallsAndReturnsNothing) {
  TwoTierWorld t;
  ASSERT_TRUE(t.world.propagation().empty());  // No boundaries declared.

  Result<uint64_t> q = t.world.frontend()->Install(kUnsatisfiableJoin);
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  for (int i = 0; i < 10; ++i) {
    CtxPtr ca = t.world.NewRequest(t.a);
    t.src->Invoke(ca.get(), {{"x", Value(int64_t{i})}});
    // The "request" reaches the backend with no baggage (the boundary between
    // the tiers does not forward it): a fresh, causally-unrelated context.
    CtxPtr cb = t.world.NewRequest(t.b);
    t.dst->Invoke(cb.get(), {{"y", Value(int64_t{i})}});
  }
  t.world.StartAgentFlushLoop(3 * kMicrosPerSecond);
  t.world.RunUntil(3 * kMicrosPerSecond);
  EXPECT_TRUE(t.world.frontend()->Results(*q).empty());
}

TEST(CausalityGateTest, UnsatisfiableJoinRejectedAtInstallAndNotForceable) {
  TwoTierWorld t;
  PropagationRegistry& g = t.world.propagation();
  g.DeclareComponent("A", /*client_entry=*/true);
  // The only boundary between the tiers drops baggage: a causal path exists
  // (so PT302 names it) but the join is unsatisfiable (PT301).
  g.DeclareEdge({"A", "B", "queue", "tier handoff", /*forwards_baggage=*/false});

  Result<uint64_t> q = t.world.frontend()->Install(kUnsatisfiableJoin);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().ToString().find("PT301"), std::string::npos);
  EXPECT_NE(q.status().ToString().find("PT302"), std::string::npos);

  // force waives warnings, never errors: PT301 still rejects.
  InstallOptions force;
  force.force = true;
  q = t.world.frontend()->Install(kUnsatisfiableJoin, force);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().ToString().find("PT301"), std::string::npos);
}

TEST(CausalityGateTest, EntryUnreachableWarningIsForceable) {
  TwoTierWorld t;
  PropagationRegistry& g = t.world.propagation();
  g.DeclareComponent("A", /*client_entry=*/true);
  // Model present, but nothing connects to B: a query over dst.tp draws
  // PT303 (warning severity — installable with force).
  g.DeclareEdge({"A", "C", "rpc", "elsewhere", /*forwards_baggage=*/true});

  const char* kLocal = "From d In dst.tp GroupBy d.y Select d.y, COUNT";
  Result<uint64_t> q = t.world.frontend()->Install(kLocal);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().ToString().find("PT303"), std::string::npos);

  InstallOptions force;
  force.force = true;
  EXPECT_TRUE(t.world.frontend()->Install(kLocal, force).ok());
}

TEST(CausalityGateTest, BaggageBudgetExceededIsErrorAndNotForceable) {
  TwoTierWorld t;
  PropagationRegistry& g = t.world.propagation();
  g.DeclareComponent("A", /*client_entry=*/true);
  // Forwarding chain A -> B -> C: an All-semantics bag packed at A can cross
  // two boundaries, so its growth bound is 2 × width.
  g.DeclareEdge({"A", "B", "rpc", "hop1", /*forwards_baggage=*/true});
  g.DeclareEdge({"B", "C", "rpc", "hop2", /*forwards_baggage=*/true});

  // A plain (non-First) join packs with All semantics — the Fig 10 shape.
  InstallOptions tight;
  tight.baggage_budget = 1;
  Result<uint64_t> q = t.world.frontend()->Install(kUnsatisfiableJoin, tight);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().ToString().find("PT305"), std::string::npos);

  tight.force = true;  // PT305 is an error: force does not help.
  q = t.world.frontend()->Install(kUnsatisfiableJoin, tight);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().ToString().find("PT305"), std::string::npos);

  // Under the default budget the same query is fine (the join itself is
  // satisfiable here: A -> B forwards).
  EXPECT_TRUE(t.world.frontend()->Install(kUnsatisfiableJoin).ok());
}

TEST(CausalityGateTest, TamperedWeaveWithUnsatisfiableJoinRefusedByAgents) {
  TwoTierWorld t;
  PropagationRegistry& g = t.world.propagation();
  g.DeclareComponent("A", /*client_entry=*/true);
  g.DeclareEdge({"A", "B", "queue", "tier handoff", /*forwards_baggage=*/false});

  telemetry::Counter& refused = telemetry::Metrics().GetCounter("agent.weaves_refused");
  uint64_t before = refused.value();

  // Hand-built weave that skips the frontend gate entirely: published
  // straight onto the command topic, as a compromised frontend would.
  WeaveCommand cmd;
  cmd.query_id = 77;
  const BagKey bag = 77 * kBagKeysPerQuery;
  cmd.advice.emplace_back("src.tp", AdviceBuilder()
                                        .Observe({{"x", "s.x"}})
                                        .Pack(bag, BagSpec::First(), {"s.x"})
                                        .Build());
  cmd.advice.emplace_back("dst.tp", AdviceBuilder()
                                        .Unpack(bag)
                                        .Observe({{"y", "d.y"}})
                                        .Emit(77, {"s.x", "d.y"})
                                        .Build());
  t.world.bus()->Publish(BusMessage{kCommandTopic, EncodeWeave(cmd)});

  // Component resolution on the agent side is schema-less: it comes from the
  // registry anchors DefineTracepoint recorded. Both agents must refuse.
  EXPECT_TRUE(t.a->registry()->WovenQueries().empty());
  EXPECT_TRUE(t.b->registry()->WovenQueries().empty());
  EXPECT_EQ(refused.value() - before, 2u);
}

// Lint and Install go through the one install gate, so they agree on every
// input: Install rejects exactly when Lint(text) reports an error, or a
// warning without force.
struct GateCase {
  const char* name;
  const char* text;
  const char* code;         // Diagnostic the case is built to draw; "" if none.
  bool rejected_unforced;  // The expected verdict without force.
};

void PrintTo(const GateCase& c, std::ostream* os) { *os << c.name; }

class LintInstallAgreementTest : public ::testing::TestWithParam<GateCase> {};

TEST_P(LintInstallAgreementTest, InstallRejectsExactlyWhenLintSaysSo) {
  const GateCase& c = GetParam();
  for (bool force : {false, true}) {
    TwoTierWorld t;
    PropagationRegistry& g = t.world.propagation();
    g.DeclareComponent("A", /*client_entry=*/true);
    g.DeclareEdge({"A", "B", "queue", "tier handoff", /*forwards_baggage=*/false});
    InstallOptions options;
    options.force = force;

    Result<analysis::QueryLintResult> lint = t.world.frontend()->Lint(c.text, options);
    if (*c.code != '\0') {
      ASSERT_TRUE(lint.ok()) << lint.status().ToString();
      EXPECT_TRUE(lint->report.Has(c.code)) << lint->report.ToString();
    }
    const bool lint_rejects = !lint.ok() || lint->report.has_errors() ||
                              (lint->report.has_warnings() && !force);
    if (!force) {
      EXPECT_EQ(lint_rejects, c.rejected_unforced);
    }
    Result<uint64_t> q = t.world.frontend()->Install(c.text, options);
    EXPECT_EQ(q.ok(), !lint_rejects)
        << "force=" << force << ": " << (q.ok() ? "installed" : q.status().ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, LintInstallAgreementTest,
    ::testing::Values(
        GateCase{"Clean", "From d In dst.tp GroupBy d.y Select d.y, COUNT", "", false},
        GateCase{"Pt110Warning", "From d In dst.tp Select d.y / 0", "PT110", true},
        GateCase{"Pt301UnsatisfiableJoin", kUnsatisfiableJoin, "PT301", true},
        GateCase{"ParseError", "From d In", "", true}),
    [](const ::testing::TestParamInfo<GateCase>& info) { return std::string(info.param.name); });

// Acceptance check for the stock deployment: every boundary the simulation
// actually crosses is declared (zero PT304), nothing drops baggage (zero
// PT302), and every anchored component serves client requests (zero PT303).
TEST(StockTopologyTest, FullClusterAuditIsCleanAfterMixedWorkload) {
  HadoopClusterConfig config;
  config.seed = 7;
  RpcStats::Reset();
  HadoopCluster cluster(config);
  constexpr int64_t kHorizon = 5 * kMicrosPerSecond;

  HdfsReadWorkload hdfs(cluster.AddClient(cluster.worker(0), "FSread4m"), cluster.namenode(),
                        4 << 20, 20 * kMicrosPerMilli, /*stress_test=*/true, 11);
  hdfs.Start(kHorizon);
  HbaseWorkload gets(cluster.AddClient(cluster.worker(1), "Hget"), cluster.hbase().servers(),
                     HbaseWorkload::Op::kGet, 5 * kMicrosPerMilli, 21);
  gets.Start(kHorizon);
  HbaseWorkload puts(cluster.AddClient(cluster.worker(2), "Hput"), cluster.hbase().servers(),
                     HbaseWorkload::Op::kPut, 2 * kMicrosPerMilli, 31);
  puts.Start(kHorizon);
  MapReduceWorkload mr(cluster.AddClient(cluster.master_host(), "MRsort10g"),
                       cluster.mapreduce(), "MRsort10g", 64 << 20,
                       cluster.config().mapreduce);
  mr.Start(kHorizon);

  cluster.world()->RunUntil(kHorizon);

  const PropagationRegistry& g = cluster.world()->propagation();
  EXPECT_FALSE(g.Observed().empty());
  analysis::Report audit = AuditTopology(g);
  EXPECT_FALSE(audit.Has("PT304")) << audit.ToString();
  EXPECT_FALSE(audit.Has("PT302")) << audit.ToString();
  EXPECT_FALSE(audit.Has("PT303")) << audit.ToString();
  EXPECT_TRUE(audit.empty()) << audit.ToString();

  // Pinned crossings and wire totals: every boundary the workload crosses,
  // and the RPC count and baggage bytes it puts on the wire at this seed.
  std::vector<std::string> observed;
  for (const analysis::ObservedEdge& e : g.Observed()) {
    observed.push_back(e.from + "->" + e.to + " " + e.kind);
  }
  EXPECT_EQ(observed, (std::vector<std::string>{
                          "DN->DN rpc",
                          "DN->DN rpc-response",
                          "DN->MRTask rpc-response",
                          "DN->RS rpc-response",
                          "DN->client rpc-response",
                          "MRTask->DN rpc",
                          "MRTask->MRTask continuation",
                          "MRTask->NN rpc",
                          "NM->MRTask continuation",
                          "NM->NM queue",
                          "NN->MRTask rpc-response",
                          "NN->RS rpc-response",
                          "NN->client rpc-response",
                          "RS->DN rpc",
                          "RS->NN rpc",
                          "RS->RS queue",
                          "RS->client rpc-response",
                          "client->DN rpc",
                          "client->NM continuation",
                          "client->NN rpc",
                          "client->RS rpc",
                      }));
  EXPECT_EQ(RpcStats::total_calls.load(), 801u);
  EXPECT_EQ(RpcStats::total_baggage_bytes.load(), 1713u);
}

// Diagnostic formatting is public surface (docs/ANALYSIS.md, pivot_lint
// output, tests that grep for codes): pin the exact PT301 rendering.
TEST(DiagnosticFormatTest, Pt301RenderingPinned) {
  TwoTierWorld t;
  PropagationRegistry& g = t.world.propagation();
  g.DeclareEdge({"B", "A", "rpc", "wrong way", /*forwards_baggage=*/true});

  Result<analysis::QueryLintResult> lint = t.world.frontend()->Lint(kUnsatisfiableJoin);
  ASSERT_TRUE(lint.ok());
  const analysis::Diagnostic* pt301 = nullptr;
  for (const analysis::Diagnostic& d : lint->report.diagnostics()) {
    if (d.code == "PT301") {
      pt301 = &d;
    }
  }
  ASSERT_NE(pt301, nullptr) << lint->report.ToString();
  // Fresh frontend lints with prospective query id 1; the packer is stage 0.
  EXPECT_EQ(pt301->ToString(),
            "error PT301 [dst.tp]: unsatisfiable happened-before join: no "
            "baggage-forwarding path connects {A} to 'B', so bag " +
                std::to_string(1 * kBagKeysPerQuery) +
                " can never arrive here — the query would install cleanly and silently "
                "return nothing");
}

}  // namespace
}  // namespace pivot
