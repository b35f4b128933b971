#include "src/hadoop/mapreduce.h"

#include <cassert>

#include "src/hadoop/tracepoints.h"

namespace pivot {

MrTaskRuntime::MrTaskRuntime(SimProcess* proc, HdfsNameNode* namenode, uint64_t seed)
    : proc_(proc), hdfs_(proc, namenode, seed) {
  tp_fis_ = GetOrDefineTracepoint(proc, FileInputStreamReadDef());
  tp_fos_ = GetOrDefineTracepoint(proc, FileOutputStreamWriteDef());
  tp_map_done_ = GetOrDefineTracepoint(proc, MapTaskDoneDef());
  tp_reduce_done_ = GetOrDefineTracepoint(proc, ReduceTaskDoneDef());
}

struct MapReduceRuntime::JobState {
  std::string name;
  MrConfig config;
  uint64_t input_bytes = 0;
  int map_tasks = 0;
  int maps_done = 0;
  int reduces_done = 0;
  bool reduce_started = false;
  uint64_t map_output_bytes = 0;  // Total intermediate data.
  SimProcess* client = nullptr;
  CtxPtr job_ctx;
  // Finished task branches awaiting the rejoin, with the runtime each ran in.
  std::vector<std::pair<MrTaskRuntime*, CtxPtr>> finished_tasks;
  std::function<void(CtxPtr)> on_complete;
  // Hosts that ran map tasks (shuffle sources), with output byte counts.
  std::map<SimHost*, uint64_t> map_output_by_host;
};

MapReduceRuntime::MapReduceRuntime(SimWorld* world, YarnResourceManager* rm,
                                   HdfsNameNode* namenode, uint64_t seed)
    : world_(world), rm_(rm), namenode_(namenode), rng_(seed) {
  // Protocol-level boundaries for the job lifecycle: submission forks the job
  // context toward an NM queue, the container body runs in an MRTask process,
  // reducers shuffle map output between MRTask processes, and finished task
  // branches rejoin the client's job context.
  analysis::PropagationRegistry& graph = world->propagation();
  graph.DeclareComponent("client", /*client_entry=*/true);
  graph.DeclareEdge(analysis::PropagationEdge{"client", "NM", "continuation", "job submission",
                                              /*forwards_baggage=*/true});
  graph.DeclareEdge(analysis::PropagationEdge{"NM", "MRTask", "continuation",
                                              "container launch", /*forwards_baggage=*/true});
  graph.DeclareEdge(analysis::PropagationEdge{"MRTask", "MRTask", "continuation", "shuffle",
                                              /*forwards_baggage=*/true});
  graph.DeclareEdge(analysis::PropagationEdge{"MRTask", "client", "join", "task rejoin",
                                              /*forwards_baggage=*/true});
  for (YarnNodeManager* nm : rm->node_managers()) {
    SimProcess* proc = world->AddProcess(nm->process()->host(), "MRTask", "MRTask");
    task_runtimes_.push_back(std::make_unique<MrTaskRuntime>(proc, namenode, rng_.NextUint64()));
  }
}

MrTaskRuntime* MapReduceRuntime::RuntimeOn(SimHost* host) {
  for (const auto& rt : task_runtimes_) {
    if (rt->process()->host() == host) {
      return rt.get();
    }
  }
  assert(false && "no task runtime on host");
  return nullptr;
}

void MapReduceRuntime::SubmitJob(SimProcess* client, CtxPtr ctx, const std::string& name,
                                 uint64_t input_bytes, const MrConfig& config,
                                 std::function<void(CtxPtr)> on_complete) {
  // Client-side protocol entry: the pack site for Q2-style queries.
  Tracepoint* tp_client_protocols = GetOrDefineTracepoint(client, ClientProtocolsDef());
  Tracepoint* tp_acp = GetOrDefineTracepoint(client, MrAppClientProtocolDef());
  tp_client_protocols->Invoke(
      ctx.get(), {{"procName", Value(client->name())}, {"system", Value("MapReduce")}});
  tp_acp->Invoke(ctx.get(), {{"op", Value("submitJob")}, {"job", Value(name)}});

  auto job = std::make_shared<JobState>();
  job->name = name;
  job->config = config;
  job->input_bytes = input_bytes;
  job->map_tasks = static_cast<int>((input_bytes + config.split_bytes - 1) / config.split_bytes);
  job->client = client;
  job->on_complete = std::move(on_complete);

  // The job context stays with the client; each task runs on a forked branch
  // whose baggage carries the packed client identity. The branch crosses to
  // the NM's launch queue, and from there into the MRTask that runs the body.
  job->job_ctx = ctx;

  for (int i = 0; i < job->map_tasks; ++i) {
    YarnNodeManager* nm = rm_->NextNodeManager();
    MrTaskRuntime* rt = RuntimeOn(nm->process()->host());
    auto task_ctx = std::make_shared<ExecutionContext>(ctx->Fork());
    world_->Cross(task_ctx, client, nm->process(), "continuation");
    nm->LaunchContainer(name, task_ctx,
                        [this, job, i, nm, rt, task_ctx](std::function<void()> release) {
      world_->Cross(task_ctx, nm->process(), rt->process(), "continuation");
      RunMapTask(job, i, rt, task_ctx, std::move(release));
    });
  }
}

void MapReduceRuntime::RunMapTask(const std::shared_ptr<JobState>& job, int task_index,
                                  MrTaskRuntime* rt, CtxPtr ctx, std::function<void()> release) {
  // 1. Read the input split from HDFS.
  uint64_t file_id = rng_.NextBelow(namenode_->file_count());
  uint64_t split = job->config.split_bytes;
  rt->hdfs()->Read(
      ctx, file_id, split,
      [this, job, task_index, rt, split, release = std::move(release)](
          CtxPtr c, HdfsClient::ReadResult) mutable {
        // 2. Compute, then spill map output to local disk ("Map" category).
        auto out_bytes = static_cast<uint64_t>(static_cast<double>(split) *
                                               job->config.map_selectivity);
        int64_t cpu = job->config.cpu_micros_per_mb * static_cast<int64_t>(split >> 20);
        world_->env()->Schedule(cpu, [this, job, task_index, rt, out_bytes, c,
                                      release = std::move(release)]() mutable {
          rt->process()->host()->disk().Transfer(out_bytes, [this, job, task_index, rt, out_bytes,
                                                             c, release = std::move(release)]() mutable {
            rt->tp_fos()->Invoke(c.get(), {{"delta", Value(static_cast<int64_t>(out_bytes))},
                                           {"category", Value("Map")}});
            rt->tp_map_done()->Invoke(
                c.get(), {{"job", Value(job->name)}, {"task", Value(int64_t{task_index})}});
            job->map_output_bytes += out_bytes;
            job->map_output_by_host[rt->process()->host()] += out_bytes;
            job->finished_tasks.emplace_back(rt, c);
            ++job->maps_done;
            release();
            MaybeStartReduce(job);
          });
        });
      });
}

void MapReduceRuntime::MaybeStartReduce(const std::shared_ptr<JobState>& job) {
  if (job->reduce_started || job->maps_done < job->map_tasks) {
    return;
  }
  job->reduce_started = true;
  for (int r = 0; r < job->config.reducers; ++r) {
    YarnNodeManager* nm = rm_->NextNodeManager();
    MrTaskRuntime* rt = RuntimeOn(nm->process()->host());
    auto task_ctx = std::make_shared<ExecutionContext>(job->job_ctx->Fork());
    world_->Cross(task_ctx, job->client, nm->process(), "continuation");
    nm->LaunchContainer(job->name, task_ctx,
                        [this, job, r, nm, rt, task_ctx](std::function<void()> release) {
      world_->Cross(task_ctx, nm->process(), rt->process(), "continuation");
      RunReduceTask(job, r, rt, task_ctx, std::move(release));
    });
  }
}

void MapReduceRuntime::RunReduceTask(const std::shared_ptr<JobState>& job, int task_index,
                                     MrTaskRuntime* rt, CtxPtr ctx,
                                     std::function<void()> release) {
  // 1. Shuffle: fetch this reducer's share of every map host's output over
  // the network, writing it to local disk ("Shuffle" category).
  uint64_t shuffle_share =
      job->map_output_bytes / static_cast<uint64_t>(job->config.reducers);
  SimHost* reducer_host = rt->process()->host();

  auto pending = std::make_shared<int>(0);
  auto after_shuffle = std::make_shared<std::function<void()>>();

  *after_shuffle = [this, job, task_index, rt, ctx, shuffle_share,
                    release = std::move(release)]() mutable {
    // 2. Merge-read shuffled data ("Reduce" category), compute, and write the
    // output partition back to HDFS.
    rt->process()->host()->disk().Transfer(shuffle_share, [this, job, task_index, rt, ctx,
                                                           shuffle_share,
                                                           release = std::move(release)]() mutable {
      rt->tp_fis()->Invoke(ctx.get(), {{"delta", Value(static_cast<int64_t>(shuffle_share))},
                                       {"category", Value("Reduce")}});
      int64_t cpu = job->config.cpu_micros_per_mb * static_cast<int64_t>(shuffle_share >> 20);
      world_->env()->Schedule(cpu, [this, job, task_index, rt, ctx, shuffle_share,
                                    release = std::move(release)]() mutable {
        rt->hdfs()->Write(ctx, shuffle_share, [this, job, task_index, rt,
                                               release = std::move(release)](CtxPtr c) mutable {
          rt->tp_reduce_done()->Invoke(
              c.get(), {{"job", Value(job->name)}, {"task", Value(int64_t{task_index})}});
          job->finished_tasks.emplace_back(rt, c);
          ++job->reduces_done;
          release();
          MaybeComplete(job);
        });
      });
    });
  };

  if (job->map_output_by_host.empty()) {
    (*after_shuffle)();
    return;
  }
  for (const auto& [map_host, host_output] : job->map_output_by_host) {
    uint64_t fetch = host_output / static_cast<uint64_t>(job->config.reducers);
    if (fetch == 0) {
      continue;
    }
    ++*pending;
    // Read map output from the map host's disk ("Shuffle" source), cross the
    // network (skipped for local fetches), write to the reducer's disk.
    MrTaskRuntime* src_rt = RuntimeOn(map_host);
    world_->Cross(ctx, src_rt->process(), rt->process(), "continuation");
    auto finish_one = [this, pending, after_shuffle, rt, ctx, fetch]() {
      rt->process()->host()->disk().Transfer(fetch, [this, pending, after_shuffle, rt, ctx,
                                                     fetch]() {
        rt->tp_fos()->Invoke(ctx.get(), {{"delta", Value(static_cast<int64_t>(fetch))},
                                         {"category", Value("Shuffle")}});
        if (--*pending == 0) {
          (*after_shuffle)();
        }
      });
    };
    map_host->disk().Transfer(fetch, [this, src_rt, ctx, fetch, map_host, reducer_host,
                                      finish_one = std::move(finish_one)]() mutable {
      src_rt->tp_fis()->Invoke(ctx.get(), {{"delta", Value(static_cast<int64_t>(fetch))},
                                           {"category", Value("Shuffle")}});
      if (map_host == reducer_host) {
        finish_one();
        return;
      }
      map_host->nic_out().Transfer(fetch, [reducer_host, fetch,
                                           finish_one = std::move(finish_one)]() mutable {
        reducer_host->nic_in().Transfer(fetch, std::move(finish_one));
      });
    });
  }
  if (*pending == 0) {
    (*after_shuffle)();
  }
}

void MapReduceRuntime::MaybeComplete(const std::shared_ptr<JobState>& job) {
  if (job->reduces_done < job->config.reducers) {
    return;
  }
  // Every task branch crosses back to the client and rejoins the job context,
  // then JobComplete fires at the client.
  for (auto& [rt, task_ctx] : job->finished_tasks) {
    world_->Cross(task_ctx, rt->process(), job->client, "join");
    job->job_ctx->Join(std::move(*task_ctx));
  }
  job->finished_tasks.clear();
  Tracepoint* tp_done = GetOrDefineTracepoint(job->client, JobCompleteDef());
  tp_done->Invoke(job->job_ctx.get(), {{"id", Value(job->name)}});
  if (job->on_complete) {
    job->on_complete(job->job_ctx);
  }
}

}  // namespace pivot
