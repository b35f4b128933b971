// Fig 9: diagnosing end-to-end latency — network limplock (§6.2).
//
// "A faulty network cable caused a network link downgrade from 1Gbit to
// 100Mbit. One HBase workload in particular would experience latency spikes
// in the requests hitting this bottleneck link."
//
//   9a  HBase request latencies over time: occasional large spikes.
//   9b  Per-component latency decomposition (RS Queue / RS Process /
//       DN Transfer / DN Blocked / DN GC), average vs slow requests — the
//       slow requests are dominated by time blocked on the DataNode network.
//   9c  Per-machine network throughput: host B's link is capped, and overall
//       cluster throughput suffers.
//
// The decomposition query packs component timings at each tier and unpacks
// them at the client, Q8-style ("Advice can pack the timestamp of any event
// then unpack it at a subsequent event"). GC pauses are injected on one
// DataNode so the DN GC component is non-trivial, replicating the §6.2
// rogue-GC analysis.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/hadoop/cluster.h"

namespace pivot {
namespace {

constexpr int64_t kRunSeconds = 30;

int Main() {
  HadoopClusterConfig config;
  config.worker_hosts = 8;
  config.dataset_files = 300;
  config.seed = 909;
  config.deploy_mapreduce = false;
  config.hbase.handler_threads = 12;
  HadoopCluster cluster(config);
  SimWorld* world = cluster.world();

  // ---- Fault injection ----
  // Host B's NIC: 1 Gbit -> 100 Mbit (125 MB/s -> 12.5 MB/s).
  cluster.DowngradeNic(cluster.worker(1), 12.5e6);
  // Rogue GC on host C's DataNode: 150 ms pause every 4 s.
  for (const auto& proc : world->processes()) {
    if (proc->host() == cluster.worker(2) && proc->name() == "DataNode") {
      cluster.InjectGcPauses(proc.get(), 4 * kMicrosPerSecond, 150 * kMicrosPerMilli,
                             kRunSeconds * kMicrosPerSecond);
    }
  }

  // ---- Decomposition query (installed before the workload starts) ----
  Result<uint64_t> q_decomp = world->frontend()->Install(
      "From done In HBase.ResponseReceived\n"
      "Join sent In MostRecent(HBase.RequestSent) On sent -> done\n"
      "Join rsq In MostRecent(RS.QueueDone) On rsq -> done\n"
      "Join rsp In MostRecent(RS.ProcessDone) On rsp -> done\n"
      "Join dn In MostRecent(DN.DataTransferProtocol.done) On dn -> done\n"
      "Select done.time - sent.time As latency, rsq.queue, rsp.process, dn.transfer, "
      "dn.blocked, dn.gc");
  if (!q_decomp.ok()) {
    fprintf(stderr, "install failed: %s\n", q_decomp.status().ToString().c_str());
    return 1;
  }

  // ---- Workload: Hget + Hscan clients across the cluster ----
  std::vector<std::unique_ptr<HbaseWorkload>> clients;
  uint64_t seed = 40;
  for (int h = 0; h < 8; ++h) {
    SimProcess* get_proc = cluster.AddClient(cluster.worker(static_cast<size_t>(h)), "Hget");
    clients.push_back(std::make_unique<HbaseWorkload>(get_proc, cluster.hbase().servers(),
                                                      HbaseWorkload::Op::kGet, 10 * kMicrosPerMilli,
                                                      seed++));
    SimProcess* scan_proc = cluster.AddClient(cluster.worker(static_cast<size_t>(h)), "Hscan");
    clients.push_back(std::make_unique<HbaseWorkload>(scan_proc, cluster.hbase().servers(),
                                                      HbaseWorkload::Op::kScan, 10 * kMicrosPerMilli,
                                                      seed++));
  }
  for (auto& c : clients) {
    c->Start(kRunSeconds * kMicrosPerSecond);
  }

  world->StartAgentFlushLoop((kRunSeconds + 2) * kMicrosPerSecond);
  world->env()->RunAll();

  // ---- 9a: request latencies over time ----
  printf("Fig 9a: HBase request latencies over time [ms] (median vs max per second)\n");
  {
    std::map<int64_t, std::vector<double>> by_second;
    for (const auto& c : clients) {
      for (const auto& [at, latency] : c->stats().latencies()) {
        by_second[at / kMicrosPerSecond].push_back(static_cast<double>(latency) /
                                                   kMicrosPerMilli);
      }
    }
    printf("  %4s %10s %10s  (bar = max)\n", "t[s]", "median", "max");
    for (int64_t s = 0; s < kRunSeconds; ++s) {
      auto& v = by_second[s];
      std::sort(v.begin(), v.end());
      double median = v.empty() ? 0 : v[v.size() / 2];
      double max_latency = v.empty() ? 0 : v.back();
      int bar = static_cast<int>(std::min(50.0, max_latency / 50.0));
      printf("  %4lld %10.1f %10.1f %s\n", static_cast<long long>(s), median, max_latency,
             std::string(static_cast<size_t>(bar), '#').c_str());
    }
    printf("\n");
  }

  // ---- 9b: latency decomposition, average vs slow ----
  {
    std::vector<Tuple> rows = world->frontend()->Results(*q_decomp);
    std::vector<double> latencies;
    latencies.reserve(rows.size());
    for (const Tuple& row : rows) {
      latencies.push_back(row.Get("latency").AsDouble());
    }
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    double p95 = sorted.empty() ? 0 : sorted[sorted.size() * 95 / 100];

    struct Breakdown {
      double queue = 0, process = 0, transfer = 0, blocked = 0, gc = 0, latency = 0;
      int n = 0;
      void Add(const Tuple& row) {
        queue += row.Get("rsq.queue").AsDouble();
        process += row.Get("rsp.process").AsDouble();
        transfer += row.Get("dn.transfer").AsDouble();
        blocked += row.Get("dn.blocked").AsDouble();
        gc += row.Get("dn.gc").AsDouble();
        latency += row.Get("latency").AsDouble();
        ++n;
      }
      void Print(const char* label) const {
        double inv = n > 0 ? 1.0 / (n * kMicrosPerMilli) : 0;
        double other = latency - queue - process - transfer - blocked - gc;
        printf("  %-16s n=%6d  e2e=%8.1f | RS queue %7.1f  RS process %7.1f  "
               "DN transfer %7.1f  DN blocked %7.1f  DN GC %5.1f  client hop %7.1f  [ms avg]\n",
               label, n, latency * inv, queue * inv, process * inv, transfer * inv,
               blocked * inv, gc * inv, other * inv);
      }
    };
    Breakdown all;
    Breakdown slow;
    for (const Tuple& row : rows) {
      all.Add(row);
      if (row.Get("latency").AsDouble() >= p95) {
        slow.Add(row);
      }
    }
    printf("Fig 9b: per-component latency decomposition (slow = slowest 5%%)\n");
    all.Print("average request");
    slow.Print("slow request");
    printf("  -> slow requests are dominated by network time around the limplocked host:\n"
           "     DN transfer/blocked plus the (unattributed) RS->client response hop, the\n"
           "     paper's Fig 9b signature. RS CPU time is unchanged.\n\n");
  }

  // ---- 9c: per-machine network throughput ----
  {
    std::vector<std::string> hosts;
    std::map<std::string, std::map<int64_t, double>> series;
    for (int i = 0; i < 8; ++i) {
      std::string name(1, static_cast<char>('A' + i));
      hosts.push_back(name);
      SimHost* host = world->FindHost(name);
      for (int64_t s = 0; s < kRunSeconds; ++s) {
        series[name][s] = host->NetworkBytesInSecond(s) * 8 / 1e6;  // Mbit/s.
      }
    }
    PrintSeriesTable("Fig 9c: per-machine network throughput", "Mbit/s", hosts, series, 0,
                     kRunSeconds, 5, 1.0, "fig9c");
    printf("Host B is pinned at ~100 Mbit while every other host has 1 Gbit headroom;\n"
           "cluster-wide throughput is dragged down by the limplocked link (cf. Fig 9c).\n\n");
  }
  return 0;
}

// §6.2 replication: rogue garbage collection in an HBase RegionServer (as
// described in the VScope paper's scenario). No limplock here — instead one
// RegionServer suffers long GC pauses, and the same decomposition query
// attributes the slow requests to RS processing rather than the network.
int RogueGcScenario() {
  printf("=============================================================\n");
  printf("§6.2 replication: rogue GC in an HBase RegionServer\n");
  printf("=============================================================\n\n");

  HadoopClusterConfig config;
  config.worker_hosts = 4;
  config.dataset_files = 200;
  config.seed = 777;
  config.deploy_mapreduce = false;
  config.hbase.handler_threads = 12;
  HadoopCluster cluster(config);
  SimWorld* world = cluster.world();

  // 400 ms GC pause every 2 s on host C's RegionServer.
  for (const auto& proc : world->processes()) {
    if (proc->host() == cluster.worker(2) && proc->name() == "RegionServer") {
      cluster.InjectGcPauses(proc.get(), 2 * kMicrosPerSecond, 400 * kMicrosPerMilli,
                             10 * kMicrosPerSecond);
    }
  }

  Result<uint64_t> q = world->frontend()->Install(
      "From done In HBase.ResponseReceived\n"
      "Join sent In MostRecent(HBase.RequestSent) On sent -> done\n"
      "Join rsp In MostRecent(RS.ProcessDone) On rsp -> done\n"
      "Select done.time - sent.time As latency, rsp.process, rsp.host");
  if (!q.ok()) {
    fprintf(stderr, "install failed: %s\n", q.status().ToString().c_str());
    return 1;
  }

  std::vector<std::unique_ptr<HbaseWorkload>> clients;
  for (int h = 0; h < 4; ++h) {
    SimProcess* proc = cluster.AddClient(cluster.worker(static_cast<size_t>(h)), "Hget");
    clients.push_back(std::make_unique<HbaseWorkload>(proc, cluster.hbase().servers(),
                                                      HbaseWorkload::Op::kGet, 5 * kMicrosPerMilli,
                                                      900 + static_cast<uint64_t>(h)));
    clients.back()->Start(10 * kMicrosPerSecond);
  }
  world->StartAgentFlushLoop(12 * kMicrosPerSecond);
  world->env()->RunAll();

  std::map<std::string, std::pair<double, int>> process_by_host;  // (sum ms, n)
  for (const Tuple& row : world->frontend()->Results(*q)) {
    auto& [sum, n] = process_by_host[row.Get("rsp.host").string_value()];
    sum += row.Get("rsp.process").AsDouble() / kMicrosPerMilli;
    ++n;
  }
  printf("Average RS processing time per RegionServer host [ms]:\n");
  for (const auto& [host, acc] : process_by_host) {
    printf("  %s: %8.2f  (n=%d)%s\n", host.c_str(), acc.first / std::max(1, acc.second),
           acc.second, host == "C" ? "   <-- rogue GC" : "");
  }
  printf("\nThe same query vocabulary that diagnosed the network fault pins this one on\n"
         "RegionServer processing time at host C (its GC pauses), cf. §6.2's claim that\n"
         "Pivot Tracing replicates the VScope rogue-GC diagnosis.\n");
  return 0;
}

// §6.2 replication: an HDFS NameNode overloaded by exclusive write locking
// (the Retro scenario the paper cites). A burst of create/rename traffic
// serializes through the namespace lock; read-path ops queue behind it, and
// the lockwait export pins the cause.
int NamenodeLockScenario() {
  printf("=============================================================\n");
  printf("§6.2 replication: NameNode overloaded by exclusive write locking\n");
  printf("=============================================================\n\n");

  HadoopClusterConfig config;
  config.worker_hosts = 4;
  config.dataset_files = 100;
  config.seed = 555;
  config.deploy_hbase = false;
  config.deploy_mapreduce = false;
  config.hdfs.namenode_write_lock_micros = 5000;
  HadoopCluster cluster(config);
  SimWorld* world = cluster.world();

  Result<uint64_t> q = world->frontend()->Install(
      "From d In NN.ClientProtocol.done\n"
      "GroupBy d.op\n"
      "Select d.op, AVERAGE(d.lockwait), MAX(d.lockwait), COUNT");
  if (!q.ok()) {
    fprintf(stderr, "install failed: %s\n", q.status().ToString().c_str());
    return 1;
  }

  // A well-behaved read workload...
  std::vector<std::unique_ptr<MetadataWorkload>> readers;
  for (int i = 0; i < 4; ++i) {
    SimProcess* proc = cluster.AddClient(cluster.worker(static_cast<size_t>(i)), "reader");
    readers.push_back(std::make_unique<MetadataWorkload>(proc, cluster.namenode(), "open",
                                                         2 * kMicrosPerMilli,
                                                         10 + static_cast<uint64_t>(i)));
    readers.back()->Start(10 * kMicrosPerSecond);
  }
  // ...plus an aggressive tenant hammering create/rename from t=3s.
  std::vector<std::unique_ptr<MetadataWorkload>> writers;
  for (int i = 0; i < 6; ++i) {
    SimProcess* proc = cluster.AddClient(cluster.worker(0), "bulk-loader");
    writers.push_back(std::make_unique<MetadataWorkload>(proc, cluster.namenode(),
                                                         i % 2 == 0 ? "create" : "rename",
                                                         kMicrosPerMilli,
                                                         50 + static_cast<uint64_t>(i)));
    MetadataWorkload* w = writers.back().get();
    world->env()->ScheduleAt(3 * kMicrosPerSecond, [w] { w->Start(10 * kMicrosPerSecond); });
  }

  world->StartAgentFlushLoop(12 * kMicrosPerSecond);
  world->env()->RunAll();

  printf("Namespace-lock wait per op type (query on NN.ClientProtocol.done):\n");
  printf("  %-18s %12s %12s %8s\n", "op", "avg wait[ms]", "max wait[ms]", "n");
  for (const Tuple& row : world->frontend()->Results(*q)) {
    printf("  %-18s %12.2f %12.2f %8lld\n", row.Get("d.op").ToString().c_str(),
           row.Get("AVERAGE(d.lockwait)").AsDouble() / kMicrosPerMilli,
           row.Get("MAX(d.lockwait)").AsDouble() / kMicrosPerMilli,
           static_cast<long long>(row.Get("COUNT").int_value()));
  }

  double before = 0;
  double after = 0;
  int nb = 0;
  int na = 0;
  for (const auto& r : readers) {
    for (const auto& [at, latency] : r->stats().latencies()) {
      if (at < 3 * kMicrosPerSecond) {
        before += static_cast<double>(latency);
        ++nb;
      } else {
        after += static_cast<double>(latency);
        ++na;
      }
    }
  }
  printf("\nReader 'open' latency: %.2f ms before the write burst, %.2f ms during it —\n"
         "the lockwait column shows every op class queueing behind exclusive writers,\n"
         "replicating the §6.2 NameNode-overload diagnosis.\n",
         nb > 0 ? before / nb / kMicrosPerMilli : 0, na > 0 ? after / na / kMicrosPerMilli : 0);
  return 0;
}

}  // namespace
}  // namespace pivot

int main() {
  int rc = pivot::Main();
  if (rc != 0) {
    return rc;
  }
  rc = pivot::RogueGcScenario();
  if (rc != 0) {
    return rc;
  }
  return pivot::NamenodeLockScenario();
}
