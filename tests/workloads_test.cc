// Workload generator behaviors: closed-loop pacing, stop deadlines, stats.

#include <gtest/gtest.h>

#include "src/hadoop/cluster.h"

namespace pivot {
namespace {

HadoopClusterConfig TinyConfig() {
  HadoopClusterConfig config;
  config.worker_hosts = 3;
  config.dataset_files = 32;
  config.deploy_hbase = true;
  config.deploy_mapreduce = false;
  return config;
}

TEST(WorkloadTest, ClosedLoopStopsAtDeadline) {
  HadoopCluster cluster(TinyConfig());
  SimProcess* proc = cluster.AddClient(cluster.worker(0), "FSread4m");
  HdfsReadWorkload workload(proc, cluster.namenode(), 1 << 20, 10 * kMicrosPerMilli, false, 1);
  workload.Start(2 * kMicrosPerSecond);
  cluster.world()->env()->RunAll();

  EXPECT_GT(workload.stats().total_ops(), 10u);
  // No completion may start after the deadline (last op may finish shortly
  // after, bounded by one op duration).
  for (const auto& [at, latency] : workload.stats().latencies()) {
    EXPECT_LT(at, 3 * kMicrosPerSecond);
  }
}

TEST(WorkloadTest, ThinkTimeBoundsRate) {
  HadoopCluster cluster(TinyConfig());
  SimProcess* fast_proc = cluster.AddClient(cluster.worker(0), "fast");
  SimProcess* slow_proc = cluster.AddClient(cluster.worker(1), "slow");
  HdfsReadWorkload fast(fast_proc, cluster.namenode(), 8 << 10, kMicrosPerMilli, false, 2);
  HdfsReadWorkload slow(slow_proc, cluster.namenode(), 8 << 10, 50 * kMicrosPerMilli, false, 3);
  fast.Start(2 * kMicrosPerSecond);
  slow.Start(2 * kMicrosPerSecond);
  cluster.world()->env()->RunAll();

  EXPECT_GT(fast.stats().total_ops(), 3 * slow.stats().total_ops());
  // 50 ms think time bounds the slow client at ~40 ops in 2 s.
  EXPECT_LE(slow.stats().total_ops(), 41u);
}

TEST(WorkloadTest, StatsBucketOpsPerSecond) {
  HadoopCluster cluster(TinyConfig());
  SimProcess* proc = cluster.AddClient(cluster.worker(2), "reader");
  HdfsReadWorkload workload(proc, cluster.namenode(), 8 << 10, 20 * kMicrosPerMilli, false, 4);
  workload.Start(3 * kMicrosPerSecond);
  cluster.world()->env()->RunAll();

  double total_from_buckets = 0;
  for (const auto& [sec, ops] : workload.stats().ops().buckets()) {
    total_from_buckets += ops;
  }
  EXPECT_EQ(static_cast<uint64_t>(total_from_buckets), workload.stats().total_ops());
  EXPECT_EQ(workload.stats().latencies().size(), workload.stats().total_ops());
}

TEST(WorkloadTest, MetadataWorkloadDrivesNameNodeOnly) {
  HadoopCluster cluster(TinyConfig());
  Result<uint64_t> q_nn = cluster.world()->frontend()->Install(
      "From n In NN.ClientProtocol GroupBy n.op Select n.op, COUNT");
  Result<uint64_t> q_dn = cluster.world()->frontend()->Install(
      "From d In DN.DataTransferProtocol Select COUNT");
  ASSERT_TRUE(q_nn.ok());
  ASSERT_TRUE(q_dn.ok());

  SimProcess* proc = cluster.AddClient(cluster.worker(0), "NNBench");
  MetadataWorkload workload(proc, cluster.namenode(), "rename", 5 * kMicrosPerMilli, 5);
  workload.Start(kMicrosPerSecond);
  cluster.world()->env()->RunAll();
  cluster.world()->StartAgentFlushLoop(cluster.world()->env()->now_micros() + kMicrosPerSecond);
  cluster.world()->env()->RunAll();

  bool saw_rename = false;
  for (const Tuple& row : cluster.world()->frontend()->Results(*q_nn)) {
    if (row.Get("n.op").string_value() == "rename") {
      saw_rename = true;
      EXPECT_EQ(static_cast<uint64_t>(row.Get("COUNT").int_value()),
                workload.stats().total_ops());
    }
  }
  EXPECT_TRUE(saw_rename);
  EXPECT_TRUE(cluster.world()->frontend()->Results(*q_dn).empty());
}

TEST(WorkloadTest, PutWorkloadFlows) {
  HadoopCluster cluster(TinyConfig());
  SimProcess* proc = cluster.AddClient(cluster.worker(1), "Hput");
  HbaseWorkload workload(proc, cluster.hbase().servers(), HbaseWorkload::Op::kPut,
                         5 * kMicrosPerMilli, 6);
  workload.Start(kMicrosPerSecond);
  cluster.world()->env()->RunAll();
  EXPECT_GT(workload.stats().total_ops(), 20u);
  uint64_t memstore = 0;
  for (const auto& rs : cluster.hbase().region_servers) {
    memstore += rs->memstore_bytes() +
                static_cast<uint64_t>(rs->flushes()) * cluster.config().hbase.memstore_flush_bytes;
  }
  EXPECT_GE(memstore, workload.stats().total_ops() * cluster.config().hbase.put_bytes / 2);
}

TEST(ClusterTest, TopologyMatchesFig7) {
  HadoopClusterConfig config;
  config.worker_hosts = 4;
  config.dataset_files = 16;
  HadoopCluster cluster(config);

  // Per worker host: DataNode, RegionServer, NodeManager, MRTask.
  std::map<std::string, std::vector<std::string>> by_host;
  for (const auto& proc : cluster.world()->processes()) {
    by_host[proc->host()->name()].push_back(proc->name());
  }
  for (int i = 0; i < 4; ++i) {
    std::string host(1, static_cast<char>('A' + i));
    const auto& names = by_host[host];
    for (const char* expected : {"DataNode", "RegionServer", "NodeManager", "MRTask"}) {
      EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
          << expected << " missing on " << host;
    }
  }
  // The master host runs the control processes.
  const auto& master = by_host["master"];
  for (const char* expected : {"NameNode", "HBaseMaster", "ResourceManager"}) {
    EXPECT_NE(std::find(master.begin(), master.end(), expected), master.end()) << expected;
  }
}

TEST(ClusterTest, SchemaCoversHadoopVocabulary) {
  HadoopClusterConfig config;
  config.worker_hosts = 3;
  config.dataset_files = 8;
  HadoopCluster cluster(config);
  for (const char* name :
       {"ClientProtocols", "NN.GetBlockLocations", "NN.ClientProtocol",
        "NN.ClientProtocol.done", "DN.DataTransferProtocol", "DN.DataTransferProtocol.done",
        "DataNodeMetrics.incrBytesRead", "DataNodeMetrics.incrBytesWritten",
        "FileInputStream.read", "FileOutputStream.write", "StressTest.DoNextOp",
        "HBase.ClientService", "RS.QueueDone", "RS.ProcessDone", "RS.MemstoreFlush",
        "HBase.RequestSent", "HBase.ResponseReceived", "MR.ApplicationClientProtocol",
        "MR.JobComplete", "YARN.ContainerStart", "MR.MapTaskDone", "MR.ReduceTaskDone"}) {
    EXPECT_NE(cluster.world()->schema()->Find(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace pivot
