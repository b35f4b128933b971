// Simulated YARN: ResourceManager + per-host NodeManagers (§6 "YARN is a
// container manager to run user-provided processes across the cluster").
//
// MapReduce tasks request containers from the ResourceManager; each
// NodeManager runs a bounded number of concurrent containers and queues the
// rest, so task parallelism (and therefore MapReduce phase overlap in Fig 1)
// is governed here.

#ifndef PIVOT_SRC_HADOOP_YARN_H_
#define PIVOT_SRC_HADOOP_YARN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/simsys/sim_world.h"

namespace pivot {

class YarnNodeManager {
 public:
  YarnNodeManager(SimProcess* proc, int max_containers);

  SimProcess* process() { return proc_; }
  int running() const { return running_; }

  // Runs `body` in a container as soon as capacity allows. `body` receives a
  // completion callback it must invoke when the containerized work finishes.
  // `ctx` is the requesting execution's context (nullable): it crosses the
  // launch queue into this NM and the ContainerStart tracepoint fires within
  // it, so container launches are causally attributable to the submitting job.
  void LaunchContainer(const std::string& job, CtxPtr ctx,
                       std::function<void(std::function<void()>)> body);

 private:
  struct PendingContainer {
    std::string job;
    CtxPtr ctx;
    std::function<void(std::function<void()>)> body;
  };

  void MaybeStartNext();

  SimProcess* proc_;
  int max_containers_;
  int running_ = 0;
  int64_t next_container_id_ = 1;
  std::deque<PendingContainer> queue_;
  Tracepoint* tp_container_start_;
};

class YarnResourceManager {
 public:
  explicit YarnResourceManager(SimProcess* proc);

  SimProcess* process() { return proc_; }
  void RegisterNodeManager(YarnNodeManager* nm) { node_managers_.push_back(nm); }
  const std::vector<YarnNodeManager*>& node_managers() const { return node_managers_; }

  // Round-robin container placement across NodeManagers.
  YarnNodeManager* NextNodeManager();

 private:
  SimProcess* proc_;
  std::vector<YarnNodeManager*> node_managers_;
  size_t next_ = 0;
};

// Builds an RM on `rm_host` and one NM per listed host.
struct YarnDeployment {
  std::unique_ptr<YarnResourceManager> resource_manager;
  std::vector<std::unique_ptr<YarnNodeManager>> node_managers;

  static YarnDeployment Create(SimWorld* world, SimHost* rm_host,
                               const std::vector<SimHost*>& nm_hosts, int containers_per_node);
};

}  // namespace pivot

#endif  // PIVOT_SRC_HADOOP_YARN_H_
