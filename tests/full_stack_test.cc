// Grand integration: all nine of the paper's queries (Q1–Q9) installed
// SIMULTANEOUSLY on the full 8-host Hadoop cluster with every workload class
// running — HDFS readers, a stress test, HBase gets/scans, a MapReduce job.
// Verifies the queries coexist (distinct bags, shared tracepoints), produce
// consistent answers, and that cross-query accounting lines up.

#include <gtest/gtest.h>

#include <memory>

#include "src/hadoop/cluster.h"

namespace pivot {
namespace {

class FullStackTest : public ::testing::Test {
 protected:
  FullStackTest() {
    HadoopClusterConfig config;
    config.worker_hosts = 8;
    config.dataset_files = 200;
    config.seed = 99;
    config.mapreduce.split_bytes = 16 << 20;
    config.mapreduce.reducers = 4;
    cluster_ = std::make_unique<HadoopCluster>(config);
  }

  uint64_t Install(const char* text) {
    Result<uint64_t> q = cluster_->world()->frontend()->Install(text);
    EXPECT_TRUE(q.ok()) << text << "\n" << q.status().ToString();
    return q.ok() ? *q : 0;
  }

  std::vector<Tuple> Results(uint64_t id) {
    return cluster_->world()->frontend()->Results(id);
  }

  std::unique_ptr<HadoopCluster> cluster_;
};

TEST_F(FullStackTest, AllNinePaperQueriesCoexist) {
  Frontend* frontend = cluster_->world()->frontend();

  // Q8 is referenced by name from Q9.
  constexpr char kQ8[] =
      "From response In HBase.ResponseReceived\n"
      "Join request In MostRecent(HBase.RequestSent) On request -> response\n"
      "Select response.time - request.time As latencyMicros";
  ASSERT_TRUE(frontend
                  ->RegisterNamedQuery("Q8",
                                       "From d In MR.MapTaskDone\n"
                                       "Join c In MostRecent(YARN.ContainerStart) On c -> d\n"
                                       "Select d.time - c.time")
                  .ok());

  uint64_t q1 = Install(
      "From incr In DataNodeMetrics.incrBytesRead\n"
      "GroupBy incr.host\nSelect incr.host, SUM(incr.delta)");
  uint64_t q2 = Install(
      "From incr In DataNodeMetrics.incrBytesRead\n"
      "Join cl In First(ClientProtocols) On cl -> incr\n"
      "GroupBy cl.procName\nSelect cl.procName, SUM(incr.delta)");
  uint64_t q3 = Install(
      "From dnop In DN.DataTransferProtocol\nGroupBy dnop.host\nSelect dnop.host, COUNT");
  uint64_t q4 = Install(
      "From getloc In NN.GetBlockLocations\n"
      "Join st In StressTest.DoNextOp On st -> getloc\n"
      "GroupBy st.host, getloc.src\nSelect st.host, getloc.src, COUNT");
  uint64_t q5 = Install(
      "From getloc In NN.GetBlockLocations\n"
      "Join st In StressTest.DoNextOp On st -> getloc\n"
      "GroupBy st.host, getloc.replicas\nSelect st.host, getloc.replicas, COUNT");
  uint64_t q6 = Install(
      "From DNop In DN.DataTransferProtocol\n"
      "Join st In StressTest.DoNextOp On st -> DNop\n"
      "GroupBy st.host, DNop.host\nSelect st.host, DNop.host, COUNT");
  uint64_t q7 = Install(
      "From DNop In DN.DataTransferProtocol\n"
      "Join getloc In NN.GetBlockLocations On getloc -> DNop\n"
      "Join st In StressTest.DoNextOp On st -> getloc\n"
      "Where st.host != DNop.host\n"
      "GroupBy DNop.host, getloc.replicas\nSelect DNop.host, getloc.replicas, COUNT");
  uint64_t q8 = Install(kQ8);
  uint64_t q9 = Install(
      "From job In MR.JobComplete\n"
      "Join latencyMeasurement In Q8 On latencyMeasurement -> job\n"
      "GroupBy job.id\nSelect job.id, AVERAGE(latencyMeasurement), COUNT");

  // ---- Workloads ----
  std::vector<std::unique_ptr<HdfsReadWorkload>> readers;
  for (int h = 0; h < 8; h += 2) {
    SimProcess* proc =
        cluster_->AddClient(cluster_->worker(static_cast<size_t>(h)), "StressTest");
    readers.push_back(std::make_unique<HdfsReadWorkload>(proc, cluster_->namenode(), 8 << 10,
                                                         10 * kMicrosPerMilli, true,
                                                         500 + static_cast<uint64_t>(h)));
    readers.back()->Start(6 * kMicrosPerSecond);
  }
  SimProcess* fs_proc = cluster_->AddClient(cluster_->worker(1), "FSread4m");
  HdfsReadWorkload fsread(fs_proc, cluster_->namenode(), 4 << 20, 30 * kMicrosPerMilli, false,
                          601);
  fsread.Start(6 * kMicrosPerSecond);

  SimProcess* hget_proc = cluster_->AddClient(cluster_->worker(3), "Hget");
  HbaseWorkload hget(hget_proc, cluster_->hbase().servers(), HbaseWorkload::Op::kGet,
                     10 * kMicrosPerMilli, 602);
  hget.Start(6 * kMicrosPerSecond);
  SimProcess* hscan_proc = cluster_->AddClient(cluster_->worker(5), "Hscan");
  HbaseWorkload hscan(hscan_proc, cluster_->hbase().servers(), HbaseWorkload::Op::kScan,
                      40 * kMicrosPerMilli, 603);
  hscan.Start(6 * kMicrosPerSecond);

  SimProcess* mr_client = cluster_->AddClient(cluster_->master_host(), "MRsort10g");
  MapReduceWorkload mr(mr_client, cluster_->mapreduce(), "MRsort10g", 64 << 20,
                       cluster_->config().mapreduce);
  mr.Start(6 * kMicrosPerSecond);

  cluster_->world()->StartAgentFlushLoop(20 * kMicrosPerSecond);
  cluster_->world()->env()->RunAll();

  // ---- Cross-query consistency ----
  // Q1 (by host) and Q2 (by app) partition the same byte stream.
  double q1_total = 0;
  for (const Tuple& row : Results(q1)) {
    q1_total += row.Get("SUM(incr.delta)").AsDouble();
  }
  double q2_total = 0;
  std::set<std::string> apps;
  for (const Tuple& row : Results(q2)) {
    q2_total += row.Get("SUM(incr.delta)").AsDouble();
    apps.insert(row.Get("cl.procName").string_value());
  }
  EXPECT_GT(q1_total, 0);
  EXPECT_DOUBLE_EQ(q1_total, q2_total);
  // Every workload that touches HDFS shows up by name.
  for (const char* app : {"StressTest", "FSread4m", "Hget", "Hscan", "MRsort10g"}) {
    EXPECT_TRUE(apps.count(app) != 0) << app;
  }

  // Q3 counts every DataNode op; Q6 only the ops of StressTest requests.
  int64_t q3_total = 0;
  for (const Tuple& row : Results(q3)) {
    q3_total += row.Get("COUNT").int_value();
  }
  int64_t q6_total = 0;
  for (const Tuple& row : Results(q6)) {
    q6_total += row.Get("COUNT").int_value();
  }
  uint64_t stress_ops = 0;
  for (const auto& r : readers) {
    stress_ops += r->stats().total_ops();
  }
  EXPECT_GT(q3_total, q6_total);
  EXPECT_EQ(static_cast<uint64_t>(q6_total), stress_ops);

  // Q4 and Q5 count the same joined lookups under different groupings.
  int64_t q4_total = 0;
  for (const Tuple& row : Results(q4)) {
    q4_total += row.Get("COUNT").int_value();
  }
  int64_t q5_total = 0;
  for (const Tuple& row : Results(q5)) {
    q5_total += row.Get("COUNT").int_value();
  }
  EXPECT_EQ(q4_total, q5_total);
  EXPECT_EQ(static_cast<uint64_t>(q4_total), stress_ops);

  // Q7 counts only non-local StressTest reads: a strict subset of Q6.
  int64_t q7_total = 0;
  for (const Tuple& row : Results(q7)) {
    q7_total += row.Get("COUNT").int_value();
  }
  EXPECT_GT(q7_total, 0);
  EXPECT_LT(q7_total, q6_total);

  // Q8 streamed one latency row per HBase request.
  EXPECT_EQ(Results(q8).size(), hget.stats().total_ops() + hscan.stats().total_ops());

  // Q9: per-job average task latency, with one measurement per map task.
  auto q9_rows = Results(q9);
  ASSERT_GE(q9_rows.size(), 1u);
  EXPECT_EQ(q9_rows[0].Get("job.id").string_value(), "MRsort10g");
  EXPECT_GT(q9_rows[0].Get("AVERAGE(latencyMeasurement)").AsDouble(), 0);

  // Teardown: uninstalling everything returns every tracepoint to quiescence.
  for (uint64_t id : {q1, q2, q3, q4, q5, q6, q7, q8, q9}) {
    EXPECT_TRUE(frontend->Uninstall(id).ok());
  }
  for (const auto& proc : cluster_->world()->processes()) {
    for (const auto& name : proc->registry()->Names()) {
      EXPECT_FALSE(proc->registry()->Find(name)->enabled()) << name;
    }
  }
}

// INT64_MIN % -1 and INT64_MIN / -1 trap natively on x86. A query that lints
// clean must not kill the host at its first woven fire: int64 arithmetic
// follows the JVM `long` rules (remainder 0, quotient INT64_MIN).
TEST_F(FullStackTest, Int64MinByMinusOneQueriesRunAndReport) {
  SimProcess* proc = cluster_->AddClient(cluster_->worker(1), "FSread4m");
  HdfsReadWorkload fsread(proc, cluster_->namenode(), 4 << 20, 30 * kMicrosPerMilli, false, 601);
  fsread.Start(2 * kMicrosPerSecond);
  cluster_->world()->StartAgentFlushLoop(2 * kMicrosPerSecond);

  uint64_t mod = Install(
      "From incr In DataNodeMetrics.incrBytesRead\n"
      "Where incr.delta > (0 - 9223372036854775807 - 1) % -1\n"
      "Select SUM(incr.delta)");
  uint64_t div = Install(
      "From incr In DataNodeMetrics.incrBytesRead\n"
      "Where incr.delta != (0 - 9223372036854775807 - 1) / -1\n"
      "Select SUM(incr.delta)");
  cluster_->world()->RunUntil(2 * kMicrosPerSecond);

  // Every delta is positive and none is INT64_MIN, so both filters keep
  // every fire.
  std::vector<Tuple> by_mod = Results(mod);
  std::vector<Tuple> by_div = Results(div);
  ASSERT_EQ(by_mod.size(), 1u);
  ASSERT_EQ(by_div.size(), 1u);
  EXPECT_GT(by_mod[0].field(0).value.int_value(), 0);
  EXPECT_EQ(by_mod[0], by_div[0]);
}

TEST_F(FullStackTest, TemporalFilterOnFromRejected) {
  Result<uint64_t> q = cluster_->world()->frontend()->Install(
      "From incr In First(DataNodeMetrics.incrBytesRead) Select COUNT");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pivot
