// Fig 1: apportioning disk bandwidth usage across a cluster running HBase,
// MapReduce and direct HDFS clients simultaneously (§2.1).
//
//   Fig 1a — Q1: HDFS DataNode throughput per machine, from instrumented
//            DataNodeMetrics.incrBytesRead.
//   Fig 1b — Q2: the same metric grouped by the *top-level client
//            application*, via a happened-before join with the first
//            ClientProtocols invocation of each request.
//   Fig 1c — pivot table: per-host x per-category disk read/write throughput
//            attributed to MRsort10g, from Java FileInputStream /
//            FileOutputStream tracepoints joined with the client identity.
//
// Workloads (paper §2.1, scaled; see DESIGN.md): FSread4m, FSread64m, Hget,
// Hscan, MRsort10g, MRsort100g, with staggered start/stop times to produce
// the phased time series of the figure.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/hadoop/cluster.h"

namespace pivot {
namespace {

constexpr int64_t kRunSeconds = 40;

int Main() {
  HadoopClusterConfig config;
  config.worker_hosts = 8;
  config.dataset_files = 400;
  config.seed = 20150406;
  // Scaled sort jobs: "10g" -> 256 MB, "100g" -> 1 GB (size ratio preserved
  // in spirit; absolute numbers are not the reproduction target).
  config.mapreduce.split_bytes = 32 << 20;
  config.mapreduce.reducers = 8;
  HadoopCluster cluster(config);
  SimWorld* world = cluster.world();

  // ---- Queries ----
  Result<uint64_t> q1 = world->frontend()->Install(
      "From incr In DataNodeMetrics.incrBytesRead\n"
      "GroupBy incr.host\n"
      "Select incr.host, SUM(incr.delta)");
  Result<uint64_t> q2 = world->frontend()->Install(
      "From incr In DataNodeMetrics.incrBytesRead\n"
      "Join cl In First(ClientProtocols) On cl -> incr\n"
      "GroupBy cl.procName\n"
      "Select cl.procName, SUM(incr.delta)");
  Result<uint64_t> q_read = world->frontend()->Install(
      "From fis In FileInputStream.read\n"
      "Join cl In First(ClientProtocols) On cl -> fis\n"
      "Where cl.procName == \"MRsort10g\"\n"
      "GroupBy fis.host, fis.category\n"
      "Select fis.host, fis.category, SUM(fis.delta)");
  Result<uint64_t> q_write = world->frontend()->Install(
      "From fos In FileOutputStream.write\n"
      "Join cl In First(ClientProtocols) On cl -> fos\n"
      "Where cl.procName == \"MRsort10g\"\n"
      "GroupBy fos.host, fos.category\n"
      "Select fos.host, fos.category, SUM(fos.delta)");
  for (const auto* q : {&q1, &q2, &q_read, &q_write}) {
    if (!q->ok()) {
      fprintf(stderr, "query install failed: %s\n", q->status().ToString().c_str());
      return 1;
    }
  }

  // ---- Workloads ----
  std::vector<std::unique_ptr<HdfsReadWorkload>> hdfs_clients;
  auto add_fsread = [&](const char* name, int host, uint64_t bytes, int64_t think,
                        int64_t start_s, int64_t stop_s, uint64_t seed) {
    SimProcess* proc = cluster.AddClient(cluster.worker(static_cast<size_t>(host)), name);
    hdfs_clients.push_back(std::make_unique<HdfsReadWorkload>(
        proc, cluster.namenode(), bytes, think, /*stress_test=*/false, seed));
    HdfsReadWorkload* w = hdfs_clients.back().get();
    world->env()->ScheduleAt(start_s * kMicrosPerSecond,
                             [w, stop_s] { w->Start(stop_s * kMicrosPerSecond); });
  };
  add_fsread("FSread4m", 0, 4 << 20, 20 * kMicrosPerMilli, 0, kRunSeconds, 11);
  add_fsread("FSread4m", 4, 4 << 20, 20 * kMicrosPerMilli, 0, kRunSeconds, 12);
  add_fsread("FSread64m", 1, 64 << 20, 50 * kMicrosPerMilli, 5, kRunSeconds, 13);
  add_fsread("FSread64m", 5, 64 << 20, 50 * kMicrosPerMilli, 5, kRunSeconds, 14);

  std::vector<std::unique_ptr<HbaseWorkload>> hbase_clients;
  auto add_hbase = [&](const char* name, int host, HbaseWorkload::Op op, int64_t think,
                       int64_t start_s, int64_t stop_s, uint64_t seed) {
    SimProcess* proc = cluster.AddClient(cluster.worker(static_cast<size_t>(host)), name);
    hbase_clients.push_back(std::make_unique<HbaseWorkload>(proc, cluster.hbase().servers(),
                                                            op, think, seed));
    HbaseWorkload* w = hbase_clients.back().get();
    world->env()->ScheduleAt(start_s * kMicrosPerSecond,
                             [w, stop_s] { w->Start(stop_s * kMicrosPerSecond); });
  };
  add_hbase("Hget", 2, HbaseWorkload::Op::kGet, 5 * kMicrosPerMilli, 0, kRunSeconds, 21);
  add_hbase("Hget", 6, HbaseWorkload::Op::kGet, 5 * kMicrosPerMilli, 0, kRunSeconds, 22);
  add_hbase("Hscan", 3, HbaseWorkload::Op::kScan, 30 * kMicrosPerMilli, 10, 30, 23);
  add_hbase("Hscan", 7, HbaseWorkload::Op::kScan, 30 * kMicrosPerMilli, 10, 30, 24);

  SimProcess* mr10_client = cluster.AddClient(cluster.master_host(), "MRsort10g");
  MapReduceWorkload mr10(mr10_client, cluster.mapreduce(), "MRsort10g", 256 << 20,
                         config.mapreduce);
  mr10.Start(kRunSeconds * kMicrosPerSecond);

  SimProcess* mr100_client = cluster.AddClient(cluster.master_host(), "MRsort100g");
  MapReduceWorkload mr100(mr100_client, cluster.mapreduce(), "MRsort100g", 1024u << 20,
                          config.mapreduce);
  world->env()->ScheduleAt(20 * kMicrosPerSecond,
                           [&] { mr100.Start(kRunSeconds * kMicrosPerSecond); });

  // ---- Run ----
  world->StartAgentFlushLoop((kRunSeconds + 10) * kMicrosPerSecond);
  world->env()->RunAll();

  // ---- Fig 1a ----
  std::vector<std::string> hosts;
  for (int i = 0; i < 8; ++i) {
    hosts.emplace_back(1, static_cast<char>('A' + i));
  }
  PrintSeriesTable("Fig 1a: HDFS DataNode throughput per machine (Q1)", "MB/s", hosts,
                   SeriesByKey(world->frontend()->Series(*q1), "incr.host", "SUM(incr.delta)"),
                   0, kRunSeconds, 5, 1.0 / (1 << 20), "fig1a");

  // ---- Fig 1b ----
  std::vector<std::string> apps = {"FSread4m", "FSread64m", "Hget",
                                   "Hscan",    "MRsort10g", "MRsort100g"};
  PrintSeriesTable("Fig 1b: HDFS DataNode throughput grouped by client application (Q2)",
                   "MB/s", apps,
                   SeriesByKey(world->frontend()->Series(*q2), "cl.procName", "SUM(incr.delta)"),
                   0, kRunSeconds, 5, 1.0 / (1 << 20), "fig1b");

  // ---- Fig 1c ----
  std::vector<std::string> categories = {"HDFS", "Map", "Shuffle", "Reduce"};
  auto pivot_cells = [&](uint64_t query, const char* host_col, const char* cat_col,
                         const char* val_col) {
    std::map<std::pair<std::string, std::string>, double> cells;
    for (const Tuple& row : world->frontend()->Results(query)) {
      cells[{row.Get(host_col).ToString(), row.Get(cat_col).ToString()}] =
          row.Get(val_col).AsDouble();
    }
    return cells;
  };
  PrintPivotTable("Fig 1c (left): disk READ bytes for MRsort10g, host x source category",
                  "MB total", hosts, categories,
                  pivot_cells(*q_read, "fis.host", "fis.category", "SUM(fis.delta)"),
                  1.0 / (1 << 20));
  PrintPivotTable("Fig 1c (right): disk WRITE bytes for MRsort10g, host x source category",
                  "MB total", hosts, categories,
                  pivot_cells(*q_write, "fos.host", "fos.category", "SUM(fos.delta)"),
                  1.0 / (1 << 20));

  printf("MRsort10g jobs completed: %d; MRsort100g jobs completed: %d\n", mr10.jobs_completed(),
         mr100.jobs_completed());
  printf("\nPaper reference: Fig 1a shows only aggregate per-host load; Fig 1b decomposes the\n"
         "same bytes by top-level application via the happened-before join; Fig 1c further\n"
         "pivots MRsort10g's direct disk IO by host x {HDFS, Map, Shuffle, Reduce}.\n");
  return 0;
}

}  // namespace
}  // namespace pivot

int main() { return pivot::Main(); }
