#include "src/simsys/sim_world.h"

#include <cassert>

#include "src/telemetry/self_trace.h"

namespace pivot {

SimHost::SimHost(SimEnvironment* env, std::string name, double disk_bytes_per_sec,
                 double nic_bytes_per_sec)
    : name_(std::move(name)),
      disk_(env, name_ + "/disk", disk_bytes_per_sec),
      nic_out_(env, name_ + "/nic-out", nic_bytes_per_sec),
      nic_in_(env, name_ + "/nic-in", nic_bytes_per_sec) {}

double SimHost::NetworkBytesInSecond(int64_t sec) const {
  double out_bytes = 0;
  double in_bytes = 0;
  auto it = nic_out_.throughput().buckets().find(sec);
  if (it != nic_out_.throughput().buckets().end()) {
    out_bytes = it->second;
  }
  it = nic_in_.throughput().buckets().find(sec);
  if (it != nic_in_.throughput().buckets().end()) {
    in_bytes = it->second;
  }
  return out_bytes + in_bytes;
}

SimProcess::SimProcess(SimWorld* world, SimHost* host, std::string process_name, int64_t pid,
                       std::string component)
    : world_(world), host_(host), component_(std::move(component)) {
  if (!component_.empty()) {
    world_->propagation().DeclareComponent(component_);
  }
  runtime_.info.host = host_->name();
  runtime_.info.process_name = std::move(process_name);
  runtime_.info.process_id = pid;
  SimEnvironment* env = world_->env();
  runtime_.now_micros = [env] { return env->now_micros(); };
  agent_ = std::make_unique<PTAgent>(world_->bus(), &registry_, runtime_.info);
  runtime_.sink = agent_.get();
  // Self-telemetry: every simulated process defines the meta-tracepoints
  // (mirrored into the schema via DefineTracepoint) so queries over Pivot
  // Tracing's own activity weave here like any other tracepoint.
  for (TracepointDef def : telemetry::SelfTracepointDefs()) {
    DefineTracepoint(std::move(def));
  }
  telemetry::BindMetaTracepoints(registry_, &runtime_.meta);
  agent_->set_runtime(&runtime_);
  agent_->set_propagation(&world_->propagation());
}

Tracepoint* SimProcess::DefineTracepoint(TracepointDef def) {
  // Anchor the tracepoint in the propagation graph (empty components are
  // ignored — multi-component tracepoints deliberately stay unanchored).
  world_->propagation().AnchorTracepoint(def.name, def.component);
  // Mirror the definition into the world's schema registry (first definition
  // wins; all processes of a system type share tracepoint definitions).
  if (world_->schema()->Find(def.name) == nullptr) {
    Result<Tracepoint*> schema_tp = world_->schema()->Define(def);
    assert(schema_tp.ok());
    (void)schema_tp;
  }
  Result<Tracepoint*> tp = registry_.Define(std::move(def));
  assert(tp.ok() && "duplicate tracepoint in process");
  return tp.value();
}

void SimProcess::PauseUntil(int64_t time_micros) {
  if (time_micros > paused_until_) {
    paused_until_ = time_micros;
  }
}

int64_t SimProcess::PauseDelay() const {
  int64_t now = world_->env()->now_micros();
  return paused_until_ > now ? paused_until_ - now : 0;
}

SimWorld::SimWorld() {
  frontend_ = std::make_unique<Frontend>(&bus_, &schema_);
  SimEnvironment* env = &env_;
  frontend_->set_now_micros([env] { return env->now_micros(); });
  frontend_->set_propagation(&propagation_);
}

SimHost* SimWorld::AddHost(std::string name, double disk_bytes_per_sec,
                           double nic_bytes_per_sec) {
  hosts_.push_back(
      std::make_unique<SimHost>(&env_, std::move(name), disk_bytes_per_sec, nic_bytes_per_sec));
  return hosts_.back().get();
}

SimProcess* SimWorld::AddProcess(SimHost* host, std::string process_name,
                                 std::string component) {
  processes_.push_back(std::make_unique<SimProcess>(this, host, std::move(process_name),
                                                    next_pid_++, std::move(component)));
  return processes_.back().get();
}

SimHost* SimWorld::FindHost(std::string_view name) {
  for (const auto& h : hosts_) {
    if (h->name() == name) {
      return h.get();
    }
  }
  return nullptr;
}

CtxPtr SimWorld::NewRequest(SimProcess* proc) {
  auto ctx = std::make_shared<ExecutionContext>(proc->runtime());
  if (recording_) {
    ctx->StartTrace(&recorder_);
  }
  return ctx;
}

void SimWorld::Cross(const CtxPtr& ctx, SimProcess* from, SimProcess* to,
                     const std::string& kind) {
  propagation_.ObserveEdge(from->component(), to->component(), kind);
  ctx->set_runtime(to->runtime());
}

void SimWorld::EnableRecording() { recording_ = true; }

void SimWorld::StartAgentFlushLoop(int64_t until_micros) {
  // Flush at every whole simulated second; agents that have nothing to report
  // stay silent.
  for (int64_t t = kMicrosPerSecond; t <= until_micros; t += kMicrosPerSecond) {
    env_.ScheduleAt(t, [this, t] {
      for (const auto& proc : processes_) {
        proc->agent()->Flush(t);
      }
    });
  }
}

}  // namespace pivot
