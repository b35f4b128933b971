// Simulated Hadoop MapReduce on YARN (§6): a job fans out map tasks over
// containers, shuffles intermediate data across the network, reduces, and
// writes output back to HDFS.
//
// Baggage flows exactly as in the paper's deployment: the job client packs
// its identity at the ClientProtocols tracepoint; submission, container
// launch, task IO and shuffle all carry (forked) baggage, so a Q2-style query
// attributes every byte of DataNode and direct-disk traffic to the top-level
// job (Fig 1b/1c). Task contexts rejoin the job context at completion,
// exercising Baggage::Join at scale.
//
// Disk traffic fires FileInputStream.read / FileOutputStream.write with a
// `category` export of "Map", "Shuffle" or "Reduce" (DataNode-side HDFS
// traffic uses "HDFS"), which is the column dimension of Fig 1c.

#ifndef PIVOT_SRC_HADOOP_MAPREDUCE_H_
#define PIVOT_SRC_HADOOP_MAPREDUCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rand.h"
#include "src/hadoop/hdfs.h"
#include "src/hadoop/yarn.h"
#include "src/simsys/sim_world.h"

namespace pivot {

struct MrConfig {
  uint64_t split_bytes = 128ull << 20;   // One map task per split.
  double map_selectivity = 1.0;          // Map output / input ratio (1.0 for sort).
  int reducers = 8;
  int64_t cpu_micros_per_mb = 500;       // Task compute cost per MB processed.
  int containers_per_node = 4;
};

// Per-host task executor: a long-lived "MRTask" process per NodeManager host
// (a reused container JVM) embedding an HDFS client.
class MrTaskRuntime {
 public:
  MrTaskRuntime(SimProcess* proc, HdfsNameNode* namenode, uint64_t seed);

  SimProcess* process() { return proc_; }
  HdfsClient* hdfs() { return &hdfs_; }
  Tracepoint* tp_fis() { return tp_fis_; }
  Tracepoint* tp_fos() { return tp_fos_; }
  Tracepoint* tp_map_done() { return tp_map_done_; }
  Tracepoint* tp_reduce_done() { return tp_reduce_done_; }

 private:
  SimProcess* proc_;
  HdfsClient hdfs_;
  Tracepoint* tp_fis_;
  Tracepoint* tp_fos_;
  Tracepoint* tp_map_done_;
  Tracepoint* tp_reduce_done_;
};

class MapReduceRuntime {
 public:
  // One runtime per cluster: binds YARN + HDFS and creates the per-host task
  // processes.
  MapReduceRuntime(SimWorld* world, YarnResourceManager* rm, HdfsNameNode* namenode,
                   uint64_t seed);

  // Runs a job named `name` over `input_bytes` of the pre-created dataset.
  // `client` is the submitting process (its name is the job's identity, e.g.
  // "MRsort10g") and `ctx` executes in it; `on_complete` receives the
  // rejoined job context.
  void SubmitJob(SimProcess* client, CtxPtr ctx, const std::string& name, uint64_t input_bytes,
                 const MrConfig& config, std::function<void(CtxPtr)> on_complete);

 private:
  struct JobState;

  MrTaskRuntime* RuntimeOn(SimHost* host);
  void RunMapTask(const std::shared_ptr<JobState>& job, int task_index, MrTaskRuntime* rt,
                  CtxPtr ctx, std::function<void()> release);
  void MaybeStartReduce(const std::shared_ptr<JobState>& job);
  void RunReduceTask(const std::shared_ptr<JobState>& job, int task_index, MrTaskRuntime* rt,
                     CtxPtr ctx, std::function<void()> release);
  void MaybeComplete(const std::shared_ptr<JobState>& job);

  SimWorld* world_;
  YarnResourceManager* rm_;
  HdfsNameNode* namenode_;
  Rng rng_;
  std::vector<std::unique_ptr<MrTaskRuntime>> task_runtimes_;  // One per NM host.
};

}  // namespace pivot

#endif  // PIVOT_SRC_HADOOP_MAPREDUCE_H_
