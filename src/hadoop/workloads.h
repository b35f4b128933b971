// Closed-loop workload generators: the client applications of the paper's
// evaluation (§2.1, §6.1):
//
//   FSread4m / FSread64m   random closed-loop 4 MB / 64 MB HDFS reads
//   Hget                   10 kB row lookups in a large HBase table
//   Hscan                  4 MB table scans of a large HBase table
//   MRsort10g / MRsort100g MapReduce sort jobs
//   StressTest             closed-loop random 8 kB reads (the §6.1 clients),
//                          firing the StressTest.DoNextOp tracepoint
//
// Each workload is a closed loop: the next operation issues when the previous
// completes (plus think time). Stats record per-second op counts and
// individual latencies, backing Figs 8a and 9a.

#ifndef PIVOT_SRC_HADOOP_WORKLOADS_H_
#define PIVOT_SRC_HADOOP_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rand.h"
#include "src/hadoop/hbase.h"
#include "src/hadoop/hdfs.h"
#include "src/hadoop/mapreduce.h"
#include "src/simsys/sim_world.h"

namespace pivot {

class WorkloadStats {
 public:
  explicit WorkloadStats(const SimEnvironment* env) : ops_(env) {}

  void Record(int64_t now_micros, int64_t latency_micros) {
    ops_.AddAt(now_micros, 1.0);
    latencies_.emplace_back(now_micros, latency_micros);
    ++total_ops_;
  }

  // Completed operations per second.
  const TimeSeries& ops() const { return ops_; }
  // (completion time µs, latency µs) per operation.
  const std::vector<std::pair<int64_t, int64_t>>& latencies() const { return latencies_; }
  uint64_t total_ops() const { return total_ops_; }

 private:
  TimeSeries ops_;
  std::vector<std::pair<int64_t, int64_t>> latencies_;
  uint64_t total_ops_ = 0;
};

// Closed-loop HDFS reader (FSread4m, FSread64m and — with the DoNextOp
// tracepoint enabled — the §6.1 StressTest clients).
class HdfsReadWorkload {
 public:
  // `proc` should be named after the client application (its procname is the
  // Q2 group key). `stress_test` additionally fires StressTest.DoNextOp
  // before each op.
  HdfsReadWorkload(SimProcess* proc, HdfsNameNode* namenode, uint64_t read_bytes,
                   int64_t think_micros, bool stress_test, uint64_t seed);

  void Start(int64_t stop_at_micros);
  const WorkloadStats& stats() const { return stats_; }
  SimProcess* process() { return proc_; }

 private:
  void DoOp();

  SimProcess* proc_;
  HdfsClient client_;
  uint64_t read_bytes_;
  int64_t think_micros_;
  Rng rng_;
  int64_t stop_at_ = 0;
  WorkloadStats stats_;
  Tracepoint* tp_do_next_op_ = nullptr;
};

// Closed-loop HBase client (Hget / Hscan / Hput).
class HbaseWorkload {
 public:
  enum class Op { kGet, kScan, kPut };

  HbaseWorkload(SimProcess* proc, std::vector<HbaseRegionServer*> servers, Op op,
                int64_t think_micros, uint64_t seed);

  void Start(int64_t stop_at_micros);
  const WorkloadStats& stats() const { return stats_; }

 private:
  void DoOp();

  SimProcess* proc_;
  HbaseClient client_;
  Op op_;
  int64_t think_micros_;
  Rng rng_;
  int64_t stop_at_ = 0;
  WorkloadStats stats_;
};

// Submits MapReduce jobs back-to-back (MRsort10g / MRsort100g).
class MapReduceWorkload {
 public:
  MapReduceWorkload(SimProcess* client, MapReduceRuntime* runtime, std::string job_name,
                    uint64_t input_bytes, MrConfig config);

  void Start(int64_t stop_at_micros);
  const WorkloadStats& stats() const { return stats_; }
  int jobs_completed() const { return jobs_completed_; }

 private:
  void SubmitNext();

  SimProcess* client_;
  MapReduceRuntime* runtime_;
  std::string job_name_;
  uint64_t input_bytes_;
  MrConfig config_;
  int64_t stop_at_ = 0;
  int jobs_completed_ = 0;
  WorkloadStats stats_;
};

// NNBench-style metadata workload (Table 5's Open/Create/Rename).
class MetadataWorkload {
 public:
  MetadataWorkload(SimProcess* proc, HdfsNameNode* namenode, std::string op,
                   int64_t think_micros, uint64_t seed);

  void Start(int64_t stop_at_micros);
  const WorkloadStats& stats() const { return stats_; }

 private:
  void DoOp();

  SimProcess* proc_;
  HdfsClient client_;
  std::string op_;
  int64_t think_micros_;
  int64_t stop_at_ = 0;
  WorkloadStats stats_;
};

}  // namespace pivot

#endif  // PIVOT_SRC_HADOOP_WORKLOADS_H_
