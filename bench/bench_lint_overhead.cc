// Cost of the static-analysis gate (src/analysis/) on the install path.
//
// Verification runs once per install — never per tracepoint invocation — so
// it cannot affect the Table 5 numbers. This bench quantifies the one-shot
// cost anyway: compilation (a pure lowering) vs the install-gate linter, over
// the paper's Q2-style join (the deepest advice chain the examples install)
// and the agent-side re-verification of a decoded weave. Expect the whole
// gate in the microseconds; parsing dominates compilation.
//
// The reachability passes (PT301/PT303/PT305) add graph searches over the
// system propagation graph, so this binary also runs as a regression gate:
// after the google-benchmark suite, it lints a corpus of paper queries
// against the *full* Hadoop topology (HDFS + HBase + YARN + MapReduce, every
// boundary declared) and fails if any single query's install-time analysis
// exceeds kMaxLintMicros (1000, a 1 ms budget).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/analysis/query_linter.h"
#include "src/analysis/reachability.h"
#include "src/common/clock.h"
#include "src/hadoop/cluster.h"
#include "src/query/compiler.h"
#include "src/query/parser.h"

namespace pivot {
namespace {

constexpr const char* kQ2 =
    "From incr In DataNodeMetrics.incrBytesRead "
    "Join cl In First(ClientProtocols) On cl -> incr "
    "GroupBy cl.procName Select cl.procName, SUM(incr.delta)";

TracepointRegistry* Schema() {
  static TracepointRegistry* schema = [] {
    auto* s = new TracepointRegistry();
    TracepointDef client;
    client.name = "ClientProtocols";
    client.exports = {"procName"};
    (void)s->Define(client);
    TracepointDef incr;
    incr.name = "DataNodeMetrics.incrBytesRead";
    incr.exports = {"delta"};
    (void)s->Define(incr);
    return s;
  }();
  return schema;
}

// The full simulated deployment: every component, every declared boundary.
// Shared by the reachability benchmarks and the gate in main().
HadoopCluster* Cluster() {
  static HadoopCluster* cluster = new HadoopCluster(HadoopClusterConfig{});
  return cluster;
}

// Lints a compiled query the way the frontend install gate does.
analysis::QueryLintResult LintQuery(const CompiledQuery& compiled,
                                    const analysis::LintOptions& options) {
  return analysis::QueryLinter(options).Lint(compiled.query_id, compiled.advice, compiled.plan);
}

void BM_Compile(benchmark::State& state) {
  Query q = *ParseQuery(kQ2);
  QueryCompiler compiler(Schema(), nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler.Compile(q, 1));
  }
}
BENCHMARK(BM_Compile);

void BM_LintAlone(benchmark::State& state) {
  QueryCompiler compiler(Schema(), nullptr);
  CompiledQuery compiled = *compiler.Compile(*ParseQuery(kQ2), 1);
  analysis::LintOptions lint_options;
  lint_options.schema = Schema();
  for (auto _ : state) {
    benchmark::DoNotOptimize(LintQuery(compiled, lint_options));
  }
}
BENCHMARK(BM_LintAlone);

void BM_LintWithReachability(benchmark::State& state) {
  // Same lint, plus the propagation graph of the full deployment: PT301 join
  // reachability, PT303 entry reachability, PT305 path-aware growth bounds.
  SimWorld* world = Cluster()->world();
  QueryCompiler compiler(world->schema(), nullptr);
  CompiledQuery compiled = *compiler.Compile(*ParseQuery(kQ2), 1);
  analysis::LintOptions lint_options;
  lint_options.schema = world->schema();
  lint_options.propagation = &world->propagation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(LintQuery(compiled, lint_options));
  }
}
BENCHMARK(BM_LintWithReachability);

void BM_AuditTopology(benchmark::State& state) {
  // The whole-topology audit behind the shell `topology` command.
  const analysis::PropagationRegistry& graph = Cluster()->world()->propagation();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::AuditTopology(graph));
  }
}
BENCHMARK(BM_AuditTopology);

void BM_AgentReverify(benchmark::State& state) {
  // What every agent pays per weave command: schema-less, no dead-column
  // heuristics (mirrors PTAgent::HandleCommand).
  QueryCompiler compiler(Schema(), nullptr);
  CompiledQuery compiled = *compiler.Compile(*ParseQuery(kQ2), 1);
  analysis::LintOptions lint_options;
  lint_options.assume_projection_pushdown = false;
  analysis::QueryLinter linter(lint_options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linter.Lint(compiled.query_id, compiled.advice, compiled.plan));
  }
}
BENCHMARK(BM_AgentReverify);

// ---- The ≤1 ms install-time analysis gate ----

// Paper-style queries spanning the deployment: plain aggregation, the Fig 1
// join, a three-stage HDFS join, and a cross-system MapReduce/YARN join —
// the widest reachability searches the corpus triggers.
constexpr const char* kGateCorpus[] = {
    kQ2,
    "From DNop In DN.DataTransferProtocol "
    "Join getloc In NN.GetBlockLocations On getloc -> DNop "
    "Join st In StressTest.DoNextOp On st -> getloc "
    "GroupBy DNop.host, getloc.replicas Select DNop.host, getloc.replicas, COUNT",
    "From d In MR.MapTaskDone "
    "Join c In MostRecent(YARN.ContainerStart) On c -> d "
    "Select d.time - c.time",
    "From response In HBase.ResponseReceived "
    "Join request In MostRecent(HBase.RequestSent) On request -> response "
    "Select response.time - request.time As latencyMicros",
};

// The gate: the most one query's install-time analysis may take.
constexpr double kMaxLintMicros = 1000.0;

int RunLintGate() {
  SimWorld* world = Cluster()->world();
  analysis::LintOptions lint_options;
  lint_options.schema = world->schema();
  lint_options.propagation = &world->propagation();

  printf("\nInstall-time analysis gate: full Hadoop topology (%zu components, %zu boundaries)\n",
         world->propagation().Components().size(), world->propagation().Edges().size());
  constexpr int kIters = 200;
  constexpr int kPasses = 5;
  bool failed = false;
  for (const char* text : kGateCorpus) {
    QueryCompiler compiler(world->schema(), nullptr);
    CompiledQuery compiled = *compiler.Compile(*ParseQuery(text), 1);
    double best_micros = 1e100;
    for (int pass = 0; pass < kPasses; ++pass) {
      int64_t start = MonotonicNanos();
      for (int i = 0; i < kIters; ++i) {
        benchmark::DoNotOptimize(LintQuery(compiled, lint_options));
      }
      double micros = static_cast<double>(MonotonicNanos() - start) / 1e3 / kIters;
      if (micros < best_micros) {
        best_micros = micros;
      }
    }
    bool over = best_micros > kMaxLintMicros;
    failed |= over;
    printf("  %8.1f us/query %s  %.60s...\n", best_micros, over ? "FAIL" : "ok  ", text);
  }
  if (failed) {
    printf("FAIL: install-time analysis exceeded %.0f us for at least one query\n",
           kMaxLintMicros);
    return 1;
  }
  printf("PASS: every query analyzed within %.0f us\n", kMaxLintMicros);
  return 0;
}

}  // namespace
}  // namespace pivot

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return pivot::RunLintGate();
}
