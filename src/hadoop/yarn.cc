#include "src/hadoop/yarn.h"

#include "src/hadoop/tracepoints.h"

namespace pivot {

YarnNodeManager::YarnNodeManager(SimProcess* proc, int max_containers)
    : proc_(proc), max_containers_(max_containers) {
  tp_container_start_ = GetOrDefineTracepoint(proc, YarnContainerStartDef());
}

void YarnNodeManager::LaunchContainer(const std::string& job, CtxPtr ctx,
                                      std::function<void(std::function<void()>)> body) {
  queue_.push_back(PendingContainer{job, std::move(ctx), std::move(body)});
  MaybeStartNext();
}

void YarnNodeManager::MaybeStartNext() {
  if (running_ >= max_containers_ || queue_.empty()) {
    return;
  }
  PendingContainer next = std::move(queue_.front());
  queue_.pop_front();
  ++running_;
  // The container launch is part of the submitting job's causal history: the
  // tracepoint fires in the requester's context (fresh context if none),
  // which crossed the NM's launch queue with its baggage.
  if (next.ctx == nullptr) {
    next.ctx = std::make_shared<ExecutionContext>(proc_->runtime());
  }
  proc_->world()->Cross(next.ctx, proc_, proc_, "queue");
  int64_t container_id = next_container_id_++;
  tp_container_start_->Invoke(next.ctx.get(),
                              {{"container", Value(container_id)}, {"job", Value(next.job)}});
  // Container startup cost.
  proc_->world()->env()->Schedule(50 * kMicrosPerMilli, [this, body = std::move(next.body)] {
    body([this] {
      --running_;
      MaybeStartNext();
    });
  });
}

YarnResourceManager::YarnResourceManager(SimProcess* proc) : proc_(proc) {}

YarnNodeManager* YarnResourceManager::NextNodeManager() {
  if (node_managers_.empty()) {
    return nullptr;
  }
  YarnNodeManager* nm = node_managers_[next_ % node_managers_.size()];
  ++next_;
  return nm;
}

YarnDeployment YarnDeployment::Create(SimWorld* world, SimHost* rm_host,
                                      const std::vector<SimHost*>& nm_hosts,
                                      int containers_per_node) {
  YarnDeployment deployment;
  // Protocol-level boundary: the NM's container launch queue.
  world->propagation().DeclareEdge(analysis::PropagationEdge{
      "NM", "NM", "queue", "container launch queue", /*forwards_baggage=*/true});
  SimProcess* rm_proc = world->AddProcess(rm_host, "ResourceManager", "RM");
  deployment.resource_manager = std::make_unique<YarnResourceManager>(rm_proc);
  for (SimHost* host : nm_hosts) {
    SimProcess* nm_proc = world->AddProcess(host, "NodeManager", "NM");
    deployment.node_managers.push_back(
        std::make_unique<YarnNodeManager>(nm_proc, containers_per_node));
    deployment.resource_manager->RegisterNodeManager(deployment.node_managers.back().get());
  }
  return deployment;
}

}  // namespace pivot
