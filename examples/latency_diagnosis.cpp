// End-to-end latency diagnosis (§6.2): Q8-style latency measurement with the
// built-in `time` export, named queries (Q9 joins Q8), and per-component
// decomposition under an injected network fault.
//
// Build & run:  ./build/examples/latency_diagnosis

#include <algorithm>
#include <cstdio>
#include <memory>

#include "src/hadoop/cluster.h"

using namespace pivot;

int main() {
  HadoopClusterConfig config;
  config.worker_hosts = 4;
  config.dataset_files = 200;
  config.seed = 82;
  config.mapreduce.split_bytes = 16 << 20;
  HadoopCluster cluster(config);
  SimWorld* world = cluster.world();
  Frontend* frontend = world->frontend();

  // ---- Q8: request latency from timestamps packed/unpacked in baggage ----
  // "Advice can pack the timestamp of any event then unpack it at a
  // subsequent event, enabling comparison of timestamps between events."
  constexpr char kQ8[] =
      "From response In HBase.ResponseReceived\n"
      "Join request In MostRecent(HBase.RequestSent) On request -> response\n"
      "Select response.time - request.time As latencyMicros";
  uint64_t q8 = *frontend->Install(kQ8);

  // ---- Q9: a named query joined by another query ----
  // The paper's Q9 averages a latency measurement per completed Hadoop job:
  // the joined "source" is another query's output. Here the measured quantity
  // is per-map-task latency (container start -> task done); every task's
  // measurement happens-before the job's JobComplete, so the join holds.
  if (Status s = frontend->RegisterNamedQuery(
          "QTaskLatency",
          "From d In MR.MapTaskDone\n"
          "Join c In MostRecent(YARN.ContainerStart) On c -> d\n"
          "Select d.time - c.time");
      !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  uint64_t q9 = *frontend->Install(
      "From job In MR.JobComplete\n"
      "Join latencyMeasurement In QTaskLatency On latencyMeasurement -> job\n"
      "GroupBy job.id\n"
      "Select job.id, AVERAGE(latencyMeasurement), COUNT");

  // ---- Decomposed latency, for root-causing ----
  uint64_t q_decomp = *frontend->Install(
      "From done In HBase.ResponseReceived\n"
      "Join sent In MostRecent(HBase.RequestSent) On sent -> done\n"
      "Join dn In MostRecent(DN.DataTransferProtocol.done) On dn -> done\n"
      "Select done.time - sent.time As latency, dn.transfer, dn.blocked, dn.gc, dn.host");

  // ---- Fault: host C's NIC limps at 100 Mbit ----
  cluster.DowngradeNic(cluster.worker(2), 12.5e6);

  // ---- Workload ----
  std::vector<std::unique_ptr<HbaseWorkload>> clients;
  for (int h = 0; h < 4; ++h) {
    SimProcess* proc = cluster.AddClient(cluster.worker(static_cast<size_t>(h)), "Hscan");
    clients.push_back(std::make_unique<HbaseWorkload>(proc, cluster.hbase().servers(),
                                                      HbaseWorkload::Op::kScan,
                                                      20 * kMicrosPerMilli,
                                                      100 + static_cast<uint64_t>(h)));
    clients.back()->Start(10 * kMicrosPerSecond);
  }
  // A MapReduce job for Q9 to observe.
  SimProcess* job_client = cluster.AddClient(cluster.master_host(), "MRsortDemo");
  MapReduceWorkload mr(job_client, cluster.mapreduce(), "MRsortDemo", 64 << 20,
                       config.mapreduce);
  mr.Start(10 * kMicrosPerSecond);

  world->StartAgentFlushLoop(15 * kMicrosPerSecond);
  world->env()->RunAll();

  // ---- Results ----
  {
    std::vector<double> latencies;
    for (const Tuple& row : frontend->Results(q8)) {
      latencies.push_back(row.Get("latencyMicros").AsDouble() / 1000.0);
    }
    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double p) {
      return latencies.empty() ? 0.0 : latencies[static_cast<size_t>(p * (latencies.size() - 1))];
    };
    printf("Q8 — end-to-end HBase latency from %zu requests [ms]:\n", latencies.size());
    printf("  p50 %.1f   p90 %.1f   p99 %.1f   max %.1f\n\n", pct(0.5), pct(0.9), pct(0.99),
           latencies.empty() ? 0.0 : latencies.back());
  }

  printf("Q9 — average map-task latency per completed job (named-query join):\n");
  for (const Tuple& row : frontend->Results(q9)) {
    printf("  %s\n", row.ToString().c_str());
  }

  printf("\nDecomposition — average DataNode-side components by DataNode host [ms]:\n");
  {
    struct Acc {
      double transfer = 0, blocked = 0, gc = 0, latency = 0;
      int n = 0;
    };
    std::map<std::string, Acc> by_host;
    for (const Tuple& row : frontend->Results(q_decomp)) {
      Acc& acc = by_host[row.Get("dn.host").string_value()];
      acc.transfer += row.Get("dn.transfer").AsDouble();
      acc.blocked += row.Get("dn.blocked").AsDouble();
      acc.gc += row.Get("dn.gc").AsDouble();
      acc.latency += row.Get("latency").AsDouble();
      ++acc.n;
    }
    printf("  %6s %8s %10s %10s %8s %10s\n", "DN", "n", "e2e", "transfer", "blocked", "gc");
    for (const auto& [host, acc] : by_host) {
      double inv = acc.n > 0 ? 1.0 / (acc.n * 1000.0) : 0;
      printf("  %6s %8d %10.1f %10.1f %8.1f %10.2f%s\n", host.c_str(), acc.n,
             acc.latency * inv, acc.transfer * inv, acc.blocked * inv, acc.gc * inv,
             host == "C" ? "   <-- limplocked NIC" : "");
    }
  }
  printf("\nRequests served by DataNode C spend their time in network transfer — the\n"
         "faulty link is identified without touching a single log file.\n");
  return 0;
}
