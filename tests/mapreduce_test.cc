#include <gtest/gtest.h>

#include "src/hadoop/cluster.h"

namespace pivot {
namespace {

HadoopClusterConfig MrConfig4() {
  HadoopClusterConfig config;
  config.worker_hosts = 4;
  config.dataset_files = 64;
  config.deploy_hbase = false;
  config.deploy_mapreduce = true;
  config.mapreduce.split_bytes = 8 << 20;  // Small splits keep tests fast.
  config.mapreduce.reducers = 2;
  return config;
}

TEST(MapReduceTest, JobRunsToCompletion) {
  HadoopCluster cluster(MrConfig4());
  SimProcess* client = cluster.AddClient(cluster.master_host(), "MRsortTest");

  bool completed = false;
  CtxPtr ctx = cluster.world()->NewRequest(client);
  cluster.mapreduce()->SubmitJob(client, ctx, "MRsortTest", 32 << 20,
                                 cluster.config().mapreduce, [&](CtxPtr) { completed = true; });
  cluster.world()->env()->RunAll();
  EXPECT_TRUE(completed);
}

TEST(MapReduceTest, TaskCountsMatchInput) {
  HadoopCluster cluster(MrConfig4());
  Result<uint64_t> q_maps = cluster.world()->frontend()->Install(
      "From m In MR.MapTaskDone Select COUNT");
  Result<uint64_t> q_reds = cluster.world()->frontend()->Install(
      "From r In MR.ReduceTaskDone Select COUNT");
  ASSERT_TRUE(q_maps.ok());
  ASSERT_TRUE(q_reds.ok());

  SimProcess* client = cluster.AddClient(cluster.master_host(), "MRsortTest");
  CtxPtr ctx = cluster.world()->NewRequest(client);
  cluster.mapreduce()->SubmitJob(client, ctx, "MRsortTest", 32 << 20,
                                 cluster.config().mapreduce, nullptr);
  cluster.world()->env()->RunAll();
  cluster.world()->StartAgentFlushLoop(cluster.world()->env()->now_micros() + kMicrosPerSecond);
  cluster.world()->env()->RunAll();

  // 32 MB / 8 MB splits = 4 map tasks; 2 reducers.
  EXPECT_EQ(cluster.world()->frontend()->Results(*q_maps)[0].Get("COUNT").int_value(), 4);
  EXPECT_EQ(cluster.world()->frontend()->Results(*q_reds)[0].Get("COUNT").int_value(), 2);
}

TEST(MapReduceTest, BaggageAttributesTaskIoToJobClient) {
  // The heart of Fig 1b: DataNode traffic grouped by the *top-level client*,
  // even though the reads are issued by MRTask processes on other machines.
  HadoopCluster cluster(MrConfig4());
  Result<uint64_t> q = cluster.world()->frontend()->Install(
      "From incr In DataNodeMetrics.incrBytesRead "
      "Join cl In First(ClientProtocols) On cl -> incr "
      "GroupBy cl.procName Select cl.procName, SUM(incr.delta)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  SimProcess* client = cluster.AddClient(cluster.master_host(), "MRsort10g");
  CtxPtr ctx = cluster.world()->NewRequest(client);
  cluster.mapreduce()->SubmitJob(client, ctx, "MRsort10g", 32 << 20,
                                 cluster.config().mapreduce, nullptr);
  cluster.world()->env()->RunAll();
  cluster.world()->StartAgentFlushLoop(cluster.world()->env()->now_micros() + kMicrosPerSecond);
  cluster.world()->env()->RunAll();

  auto results = cluster.world()->frontend()->Results(*q);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].Get("cl.procName").string_value(), "MRsort10g");
  // All map input reads: 4 tasks x 8 MB.
  EXPECT_EQ(results[0].Get("SUM(incr.delta)").int_value(), 32 << 20);
}

TEST(MapReduceTest, ContainerStartIsChargedToTheNodeManager) {
  // YARN.ContainerStart is anchored at the NM: it fires in the NodeManager's
  // registry before the container body runs, so its default exports (and its
  // agent) are the NodeManager's, not those of the MRTask it launches.
  HadoopCluster cluster(MrConfig4());
  Result<uint64_t> q = cluster.world()->frontend()->Install(
      "From c In YARN.ContainerStart GroupBy c.procname Select c.procname, COUNT");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  SimProcess* client = cluster.AddClient(cluster.master_host(), "MRsortTest");
  CtxPtr ctx = cluster.world()->NewRequest(client);
  cluster.mapreduce()->SubmitJob(client, ctx, "MRsortTest", 32 << 20,
                                 cluster.config().mapreduce, nullptr);
  cluster.world()->env()->RunAll();
  cluster.world()->StartAgentFlushLoop(cluster.world()->env()->now_micros() + kMicrosPerSecond);
  cluster.world()->env()->RunAll();

  auto results = cluster.world()->frontend()->Results(*q);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].Get("c.procname").string_value(), "NodeManager");
  // 4 map containers + 2 reduce containers.
  EXPECT_EQ(results[0].Get("COUNT").int_value(), 6);
}

TEST(MapReduceTest, DiskCategoriesCoverAllPhases) {
  HadoopCluster cluster(MrConfig4());
  Result<uint64_t> q = cluster.world()->frontend()->Install(
      "From w In FileOutputStream.write GroupBy w.category "
      "Select w.category, SUM(w.delta)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  SimProcess* client = cluster.AddClient(cluster.master_host(), "MRsortTest");
  CtxPtr ctx = cluster.world()->NewRequest(client);
  cluster.mapreduce()->SubmitJob(client, ctx, "MRsortTest", 32 << 20,
                                 cluster.config().mapreduce, nullptr);
  cluster.world()->env()->RunAll();
  cluster.world()->StartAgentFlushLoop(cluster.world()->env()->now_micros() + kMicrosPerSecond);
  cluster.world()->env()->RunAll();

  std::map<std::string, int64_t> by_category;
  for (const Tuple& row : cluster.world()->frontend()->Results(*q)) {
    by_category[row.Get("w.category").string_value()] = row.Get("SUM(w.delta)").int_value();
  }
  EXPECT_GT(by_category["Map"], 0);
  EXPECT_GT(by_category["Shuffle"], 0);
  EXPECT_GT(by_category["HDFS"], 0);  // Reduce output written through HDFS.
}

TEST(MapReduceTest, WorkloadLoopSubmitsJobsBackToBack) {
  HadoopCluster cluster(MrConfig4());
  SimProcess* client = cluster.AddClient(cluster.master_host(), "MRsortTest");
  MrConfig mr = cluster.config().mapreduce;
  MapReduceWorkload workload(client, cluster.mapreduce(), "MRsortTest", 16 << 20, mr);
  workload.Start(20 * kMicrosPerSecond);
  cluster.world()->env()->RunAll();
  EXPECT_GE(workload.jobs_completed(), 2);
}

TEST(YarnTest, ContainerCapacityBoundsParallelism) {
  SimWorld world;
  SimHost* host = world.AddHost("A", 200e6, 125e6);
  SimProcess* nm_proc = world.AddProcess(host, "NodeManager");
  YarnNodeManager nm(nm_proc, /*max_containers=*/2);

  int running_peak = 0;
  int running_now = 0;
  int finished = 0;
  for (int i = 0; i < 6; ++i) {
    nm.LaunchContainer("job", nullptr, [&](std::function<void()> release) {
      ++running_now;
      running_peak = std::max(running_peak, running_now);
      world.env()->Schedule(1000, [&, release = std::move(release)] {
        --running_now;
        ++finished;
        release();
      });
    });
  }
  world.env()->RunAll();
  EXPECT_EQ(finished, 6);
  EXPECT_LE(running_peak, 2);
}

}  // namespace
}  // namespace pivot
