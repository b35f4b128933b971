// Cross-tier analysis (§2.1 / Fig 1b): attributing low-level HDFS DataNode
// traffic to the high-level client applications that caused it, across the
// HBase and MapReduce tiers.
//
// "HDFS only has visibility of its direct clients, and thus an aggregate view
// of all HBase and all MapReduce clients." The happened-before join fixes
// that: the client's identity is packed once at the first ClientProtocols
// invocation and unpacked wherever bytes are counted.
//
// Build & run:  ./build/examples/cross_tier_analysis

#include <cstdio>
#include <memory>

#include "src/hadoop/cluster.h"

using namespace pivot;

int main() {
  HadoopClusterConfig config;
  config.worker_hosts = 4;
  config.dataset_files = 200;
  config.seed = 7;
  HadoopCluster cluster(config);
  SimWorld* world = cluster.world();

  // What HDFS can tell you natively: bytes by *direct* client process name.
  uint64_t q_direct = *world->frontend()->Install(
      "From incr In DataNodeMetrics.incrBytesRead\n"
      "GroupBy incr.procname\n"
      "Select incr.procname, SUM(incr.delta)");
  // Note: incr.procname is the DataNode itself — HDFS's own view is even
  // coarser. The nearest native equivalent is "which process called us",
  // which for HBase gets is always "RegionServer" and for MapReduce "MRTask".

  // What Pivot Tracing adds: bytes by the top-level application (Q2).
  uint64_t q2 = *world->frontend()->Install(
      "From incr In DataNodeMetrics.incrBytesRead\n"
      "Join cl In First(ClientProtocols) On cl -> incr\n"
      "GroupBy cl.procName\n"
      "Select cl.procName, SUM(incr.delta)");

  // Which *system* each request entered through (the union tracepoint also
  // exports the protocol family).
  uint64_t q_system = *world->frontend()->Install(
      "From incr In DataNodeMetrics.incrBytesRead\n"
      "Join cl In First(ClientProtocols) On cl -> incr\n"
      "GroupBy cl.system\n"
      "Select cl.system, SUM(incr.delta), COUNT");

  // ---- Mixed workload: two HBase apps, one MapReduce job, one raw client ----
  SimProcess* hget = cluster.AddClient(cluster.worker(0), "web-frontend");
  HbaseWorkload hbase_app(hget, cluster.hbase().servers(), HbaseWorkload::Op::kGet,
                          5 * kMicrosPerMilli, 1);
  hbase_app.Start(10 * kMicrosPerSecond);

  SimProcess* analytics = cluster.AddClient(cluster.worker(1), "analytics-scans");
  HbaseWorkload scan_app(analytics, cluster.hbase().servers(), HbaseWorkload::Op::kScan,
                         20 * kMicrosPerMilli, 2);
  scan_app.Start(10 * kMicrosPerSecond);

  SimProcess* backup = cluster.AddClient(cluster.worker(2), "nightly-backup");
  HdfsReadWorkload raw_reader(backup, cluster.namenode(), 16 << 20, 50 * kMicrosPerMilli,
                              /*stress_test=*/false, 3);
  raw_reader.Start(10 * kMicrosPerSecond);

  SimProcess* etl = cluster.AddClient(cluster.master_host(), "etl-job");
  MapReduceWorkload mr(etl, cluster.mapreduce(), "etl-job", 64 << 20, config.mapreduce);
  mr.Start(10 * kMicrosPerSecond);

  world->StartAgentFlushLoop(12 * kMicrosPerSecond);
  world->env()->RunAll();

  printf("HDFS's native view — bytes by the process that read them:\n");
  for (const Tuple& row : world->frontend()->Results(q_direct)) {
    printf("  %s\n", row.ToString().c_str());
  }
  printf("\nPivot Tracing's view — the same bytes by top-level application (Q2):\n");
  for (const Tuple& row : world->frontend()->Results(q2)) {
    printf("  %s\n", row.ToString().c_str());
  }
  printf("\n...and by entry protocol family:\n");
  for (const Tuple& row : world->frontend()->Results(q_system)) {
    printf("  %s\n", row.ToString().c_str());
  }
  printf("\nThe per-application rows are invisible to HDFS alone: the identity crossed\n"
         "the HBase/YARN/MapReduce tiers in the request baggage.\n");
  return 0;
}
