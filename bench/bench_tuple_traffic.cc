// Fig 6 + §4: the cost of evaluating happened-before joins.
//
// Compares three strategies for Q2 over the same workload:
//   1. Naive/global (Fig 6a): every tuple observed at any of the query's
//      tracepoints is shipped for a centralized θ-join over the recorded
//      execution DAGs (the Magpie-style temporal-join strategy).
//   2. Optimized inline (Fig 6b): baggage evaluates the join in situ; only
//      process-locally pre-aggregated results cross the network, once per
//      second ("Q2 is reduced from approximately 600 tuples per second to 6
//      tuples per second from each DataNode").
//   3. Ablation: the same inline strategy with the §4 rewrites disabled
//      (no projection/selection/aggregation pushdown) — baggage grows.
//
// Also verifies the two evaluation strategies agree on the query answer, and
// reports baggage bytes per request for Q2 and for Q7 (the paper's largest:
// ~137 bytes per request).

#include <cstdio>
#include <memory>

#include "src/hadoop/cluster.h"
#include "src/hadoop/tracepoints.h"
#include "src/query/naive_eval.h"
#include "src/query/parser.h"

namespace pivot {
namespace {

constexpr int64_t kRunSeconds = 5;
constexpr int kClientsPerHost = 4;
constexpr int kHosts = 4;

constexpr char kQ2[] =
    "From incr In DataNodeMetrics.incrBytesRead\n"
    "Join cl In First(ClientProtocols) On cl -> incr\n"
    "GroupBy cl.procName\n"
    "Select cl.procName, SUM(incr.delta)";

constexpr char kQ7[] =
    "From DNop In DN.DataTransferProtocol\n"
    "Join getloc In NN.GetBlockLocations On getloc -> DNop\n"
    "Join st In StressTest.DoNextOp On st -> getloc\n"
    "Where st.host != DNop.host\n"
    "GroupBy DNop.host, getloc.replicas\n"
    "Select DNop.host, getloc.replicas, COUNT";

struct RunStats {
  uint64_t requests = 0;
  uint64_t emitted = 0;           // Advice -> agent (in-process).
  uint64_t reported = 0;          // Agent -> frontend (crosses the network).
  uint64_t baggage_bytes = 0;     // Total serialized baggage on the wire.
  uint64_t rpc_calls = 0;
  std::vector<Tuple> results;
  TraceRecorder* recorder = nullptr;
};

RunStats RunWorkload(const char* query_text, const QueryCompiler::Options& options, bool record,
                     bool explain = false) {
  // The cluster/clients are static so the returned recorder pointer stays
  // valid until the *next* RunWorkload call (callers consume it in between).
  static std::vector<std::unique_ptr<HdfsReadWorkload>> clients;
  static std::unique_ptr<HadoopCluster> cluster;
  clients.clear();
  HadoopClusterConfig config;
  config.worker_hosts = kHosts;
  config.dataset_files = 100;
  config.seed = 4242;
  config.deploy_hbase = false;
  config.deploy_mapreduce = false;
  cluster = std::make_unique<HadoopCluster>(config);
  SimWorld* world = cluster->world();
  if (record) {
    world->EnableRecording();
  }
  RpcStats::Reset();

  Result<uint64_t> q = explain ? world->frontend()->InstallExplain(query_text)
                               : world->frontend()->Install(query_text, {.compiler = options});
  if (!q.ok()) {
    fprintf(stderr, "install failed: %s\n", q.status().ToString().c_str());
    exit(1);
  }

  uint64_t seed = 99;
  for (int h = 0; h < kHosts; ++h) {
    for (int c = 0; c < kClientsPerHost; ++c) {
      SimProcess* proc =
          cluster->AddClient(cluster->worker(static_cast<size_t>(h)), "StressTest");
      clients.push_back(std::make_unique<HdfsReadWorkload>(proc, cluster->namenode(), 8 << 10,
                                                           5 * kMicrosPerMilli,
                                                           /*stress_test=*/true, seed++));
      clients.back()->Start(kRunSeconds * kMicrosPerSecond);
    }
  }
  world->StartAgentFlushLoop((kRunSeconds + 1) * kMicrosPerSecond);
  world->env()->RunAll();

  RunStats stats;
  for (const auto& c : clients) {
    stats.requests += c->stats().total_ops();
  }
  for (const auto& proc : world->processes()) {
    stats.emitted += proc->agent()->emitted_tuples();
    stats.reported += proc->agent()->reported_tuples();
  }
  stats.baggage_bytes = RpcStats::total_baggage_bytes;
  stats.rpc_calls = RpcStats::total_calls;
  stats.results = world->frontend()->Results(*q);
  stats.recorder = world->recorder();
  return stats;
}

std::vector<std::string> Canonical(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& r : rows) {
    out.push_back(r.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

int Main() {
  printf("Tuple traffic for Q2 over a %lld s StressTest workload "
         "(%d clients, %d DataNodes)\n\n",
         static_cast<long long>(kRunSeconds), kHosts * kClientsPerHost, kHosts);

  // ---- Optimized inline evaluation, with ground-truth recording ----
  RunStats optimized = RunWorkload(kQ2, QueryCompiler::Options{}, /*record=*/true);

  // Naive/global evaluation over the same recorded execution.
  Result<Query> q2_ast = ParseQuery(kQ2);
  Result<NaiveResult> naive = EvaluateNaive(*q2_ast, *optimized.recorder, nullptr);
  if (!naive.ok()) {
    fprintf(stderr, "naive evaluation failed: %s\n", naive.status().ToString().c_str());
    return 1;
  }

  bool agree = Canonical(naive->rows) == Canonical(optimized.results);
  printf("Results (both strategies -> %s):\n", agree ? "IDENTICAL" : "MISMATCH!");
  for (const auto& row : optimized.results) {
    printf("  %s\n", row.ToString().c_str());
  }
  printf("\n");

  double secs = static_cast<double>(kRunSeconds);
  double per_dn = secs * kHosts;
  printf("%-52s %12s %14s\n", "strategy / stage", "tuples", "per DN per s");
  printf("%-52s %12llu %14.1f\n", "naive global join: tuples shipped to evaluator (Fig 6a)",
         static_cast<unsigned long long>(naive->tuples_shipped),
         static_cast<double>(naive->tuples_shipped) / per_dn);
  printf("%-52s %12llu %14.1f\n", "inline: tuples emitted by advice (stay in-process)",
         static_cast<unsigned long long>(optimized.emitted),
         static_cast<double>(optimized.emitted) / per_dn);
  printf("%-52s %12llu %14.1f\n", "inline: tuples reported after per-process aggregation",
         static_cast<unsigned long long>(optimized.reported),
         static_cast<double>(optimized.reported) / per_dn);
  printf("\nPaper (§4): \"Q2 is reduced from approximately 600 tuples per second to 6 tuples\n"
         "per second from each DataNode\" — the reported/emitted ratio above is the same\n"
         "two-orders-of-magnitude collapse.\n\n");

  // ---- Ablation: §4 rewrites disabled ----
  const QueryCompiler::Options no_opt{.pushdown = false};
  RunStats unoptimized = RunWorkload(kQ2, no_opt, /*record=*/false);

  printf("Baggage on the wire for Q2 (%llu requests, %llu RPCs):\n",
         static_cast<unsigned long long>(optimized.requests),
         static_cast<unsigned long long>(optimized.rpc_calls));
  printf("  optimized (Π/σ/A pushdown):   %8.1f bytes per request\n",
         static_cast<double>(optimized.baggage_bytes) /
             static_cast<double>(optimized.requests));
  printf("  unoptimized (whole tuples):   %8.1f bytes per request\n",
         static_cast<double>(unoptimized.baggage_bytes) /
             static_cast<double>(unoptimized.requests));
  printf("  unoptimized requests completed: %llu (vs %llu optimized — heavier baggage\n"
         "  costs simulated bandwidth, so the closed-loop workload itself slows down;\n"
         "  semantic equivalence of the rewrites is property-tested in\n"
         "  tests/equivalence_test.cc)\n\n",
         static_cast<unsigned long long>(unoptimized.requests),
         static_cast<unsigned long long>(optimized.requests));

  // ---- Q7: the paper's largest baggage ----
  RunStats q7 = RunWorkload(kQ7, QueryCompiler::Options{}, /*record=*/false);
  printf("Baggage on the wire for Q7 (3-way chained join; paper: ~137 bytes/request):\n");
  printf("  %8.1f bytes per request over %llu requests\n\n",
         static_cast<double>(q7.baggage_bytes) / static_cast<double>(q7.requests),
         static_cast<unsigned long long>(q7.requests));

  // ---- §4 "explain": static preview + live tuple counting ----
  {
    printf("Static preview of Q7: each PACK's retention and the linter's baggage cost:\n");
    TracepointRegistry schema;
    RegisterHadoopTracepointDefs(&schema);
    QueryRegistry named;
    QueryCompiler compiler(&schema, &named);
    Result<Query> ast = ParseQuery(kQ7);
    Result<CompiledQuery> cq = compiler.Compile(*ast, 1);
    printf("%s", cq->Explain().c_str());
    analysis::QueryLintResult lint =
        analysis::QueryLinter().Lint(cq->query_id, cq->advice, cq->plan);
    printf("  baggage cost: %s\n\n", analysis::BaggageCostName(lint.cost));
  }

  RunStats explain =
      RunWorkload(kQ2, QueryCompiler::Options{}, /*record=*/false, /*explain=*/true);
  printf("Live explain for Q2 (counting shadow; \"execute a modified version of the\n"
         "query to count tuples rather than aggregate them\", §4):\n");
  for (const auto& row : explain.results) {
    printf("  %s\n", row.ToString().c_str());
  }
  printf("\n");

  // ---- §8: advice-level sampling ablation ----
  constexpr char kQ2Sampled[] =
      "From incr In DataNodeMetrics.incrBytesRead\n"
      "Join cl In Sample(10, First(ClientProtocols)) On cl -> incr\n"
      "GroupBy cl.procName\n"
      "Select cl.procName, SUM(incr.delta)";
  RunStats sampled = RunWorkload(kQ2Sampled, QueryCompiler::Options{}, /*record=*/false);
  printf("Sampling ablation (§8): Q2 with the ClientProtocols pack sampled at 10%%:\n");
  printf("  baggage bytes/request: %.1f (sampled) vs %.1f (full)\n",
         static_cast<double>(sampled.baggage_bytes) / static_cast<double>(sampled.requests),
         static_cast<double>(optimized.baggage_bytes) /
             static_cast<double>(optimized.requests));
  printf("  sampled results (counts ~10%% of requests, same grouping):\n");
  for (const auto& row : sampled.results) {
    printf("    %s\n", row.ToString().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace pivot

int main() { return pivot::Main(); }
