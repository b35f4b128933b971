#include "src/hadoop/hbase.h"

#include <cassert>

#include "src/hadoop/tracepoints.h"

namespace pivot {

HbaseRegionServer::HbaseRegionServer(SimProcess* proc, HdfsNameNode* namenode,
                                     const HbaseConfig* config, uint64_t seed)
    : proc_(proc), hdfs_(proc, namenode, seed), config_(config), rng_(seed ^ 0x9E3779B9) {
  tp_client_service_ = GetOrDefineTracepoint(proc, HbaseClientServiceDef());
  tp_queue_done_ = GetOrDefineTracepoint(proc, RsQueueDoneDef());
  tp_process_done_ = GetOrDefineTracepoint(proc, RsProcessDoneDef());
  tp_memstore_flush_ = GetOrDefineTracepoint(proc, RsMemstoreFlushDef());
}

void HbaseRegionServer::HandleRequest(CtxPtr ctx, const std::string& op, uint64_t row,
                                      RpcRespond respond) {
  tp_client_service_->Invoke(ctx.get(),
                             {{"op", Value(op)}, {"row", Value(static_cast<int64_t>(row))}});
  queue_.push_back(PendingRequest{std::move(ctx), op, row, std::move(respond),
                                  proc_->world()->env()->now_micros()});
  MaybeStartNext();
}

void HbaseRegionServer::MaybeStartNext() {
  if (busy_handlers_ >= config_->handler_threads || queue_.empty()) {
    return;
  }
  PendingRequest req = std::move(queue_.front());
  queue_.pop_front();
  ++busy_handlers_;
  RunRequest(std::move(req));
}

void HbaseRegionServer::RunRequest(PendingRequest req) {
  SimEnvironment* env = proc_->world()->env();
  int64_t queue_micros = env->now_micros() - req.enqueued_at;
  // Queue hand-off boundary: the request context crossed the RPC-handler
  // queue into a handler thread (baggage rides the context).
  proc_->world()->Cross(req.ctx, proc_, proc_, "queue");
  tp_queue_done_->Invoke(req.ctx.get(), {{"queue", Value(queue_micros)}});

  if (req.op == "put") {
    RunPut(std::make_shared<PendingRequest>(std::move(req)), env->now_micros());
    return;
  }

  const bool is_scan = req.op == "scan";
  int64_t cpu = is_scan ? config_->scan_cpu_micros : config_->get_cpu_micros;
  uint64_t hdfs_bytes = is_scan ? config_->scan_hdfs_bytes : config_->get_hdfs_bytes;
  int64_t gc = proc_->PauseDelay();
  int64_t process_start = env->now_micros();

  env->Schedule(gc + cpu, [this, req = std::make_shared<PendingRequest>(std::move(req)),
                           hdfs_bytes, process_start]() mutable {
    // Read the row/scan data through HDFS (this RegionServer is the HDFS
    // client, so Q2-style queries see "RegionServer"; the *end-user* identity
    // arrives in the baggage packed at the HBase client's ClientProtocols).
    uint64_t file_id = rng_.NextBelow(
        hdfs_.namenode()->file_count() > 0 ? hdfs_.namenode()->file_count() : 1);
    hdfs_.Read(req->ctx, file_id, hdfs_bytes,
               [this, req, process_start](CtxPtr c, HdfsClient::ReadResult result) mutable {
                 SimEnvironment* env2 = proc_->world()->env();
                 // RS processing time excludes the HDFS fetch (reported by
                 // the DataNode's own tracepoints), so the Fig 9b components
                 // are roughly additive.
                 int64_t process_micros = (env2->now_micros() - process_start) -
                                          result.latency_micros;
                 tp_process_done_->Invoke(c.get(), {{"process", Value(process_micros)}});
                 uint64_t response_bytes = req->op == "scan" ? (4u << 20) : (10u << 10);
                 req->respond(std::move(c), response_bytes);
                 --busy_handlers_;
                 MaybeStartNext();
               });
  });
}

void HbaseRegionServer::RunPut(std::shared_ptr<PendingRequest> req, int64_t process_start) {
  SimEnvironment* env = proc_->world()->env();
  int64_t gc = proc_->PauseDelay();
  env->Schedule(gc + config_->put_cpu_micros, [this, req, process_start]() mutable {
    memstore_bytes_ += config_->put_bytes;
    if (memstore_bytes_ >= config_->memstore_flush_bytes) {
      // The put that crossed the threshold pays for (and is causally charged
      // with) the flush: the flush IO runs on a branch of its context.
      FlushMemstore(req->ctx);
    }
    int64_t process_micros = proc_->world()->env()->now_micros() - process_start;
    tp_process_done_->Invoke(req->ctx.get(), {{"process", Value(process_micros)}});
    req->respond(std::move(req->ctx), 128);
    --busy_handlers_;
    MaybeStartNext();
  });
}

void HbaseRegionServer::FlushMemstore(const CtxPtr& trigger) {
  uint64_t bytes = memstore_bytes_;
  memstore_bytes_ = 0;
  ++flushes_;
  auto flush_ctx = std::make_shared<ExecutionContext>(trigger->Fork());
  // Continuation spawn: the flush runs on a forked branch of the trigger.
  proc_->world()->Cross(flush_ctx, proc_, proc_, "continuation");
  tp_memstore_flush_->Invoke(flush_ctx.get(), {{"bytes", Value(static_cast<int64_t>(bytes))}});
  // Write the store file through HDFS; the trigger's identity rides along.
  hdfs_.Write(flush_ctx, bytes, [](CtxPtr) {});
}

HbaseClient::HbaseClient(SimProcess* proc, std::vector<HbaseRegionServer*> region_servers,
                         uint64_t seed)
    : proc_(proc), region_servers_(std::move(region_servers)), rng_(seed) {
  tp_client_protocols_ = GetOrDefineTracepoint(proc, ClientProtocolsDef());
  tp_request_sent_ = GetOrDefineTracepoint(proc, HbaseRequestSentDef());
  tp_response_received_ = GetOrDefineTracepoint(proc, HbaseResponseReceivedDef());
  const std::string& me = proc->component();
  if (!me.empty()) {
    analysis::DeclareRpcBoundary(&proc->world()->propagation(), me, "RS", "ClientService");
  }
}

void HbaseClient::Get(CtxPtr ctx, std::function<void(CtxPtr, RequestResult)> done) {
  Request(std::move(ctx), "get", std::move(done));
}

void HbaseClient::Scan(CtxPtr ctx, std::function<void(CtxPtr, RequestResult)> done) {
  Request(std::move(ctx), "scan", std::move(done));
}

void HbaseClient::Put(CtxPtr ctx, std::function<void(CtxPtr, RequestResult)> done) {
  Request(std::move(ctx), "put", std::move(done));
}

void HbaseClient::Request(CtxPtr ctx, const std::string& op,
                          std::function<void(CtxPtr, RequestResult)> done) {
  assert(!region_servers_.empty());
  tp_client_protocols_->Invoke(
      ctx.get(), {{"procName", Value(proc_->name())}, {"system", Value("HBase")}});
  tp_request_sent_->Invoke(ctx.get(), {{"op", Value(op)}});

  // Rows are range-partitioned: a uniform row id picks a uniform server.
  uint64_t row = rng_.NextUint64() >> 1;
  HbaseRegionServer* rs = region_servers_[row % region_servers_.size()];
  int64_t start = proc_->world()->env()->now_micros();

  SimRpcCall(
      proc_, rs->process(), std::move(ctx), 256,
      [rs, op, row](CtxPtr sctx, RpcRespond respond) {
        rs->HandleRequest(std::move(sctx), op, row, std::move(respond));
      },
      [this, rs, op, start, done = std::move(done)](CtxPtr c) mutable {
        tp_response_received_->Invoke(c.get(), {{"op", Value(op)}});
        RequestResult result;
        result.latency_micros = proc_->world()->env()->now_micros() - start;
        result.region_server_host = rs->process()->host()->name();
        done(std::move(c), result);
      });
}

std::vector<HbaseRegionServer*> HbaseDeployment::servers() const {
  std::vector<HbaseRegionServer*> out;
  out.reserve(region_servers.size());
  for (const auto& rs : region_servers) {
    out.push_back(rs.get());
  }
  return out;
}

HbaseDeployment HbaseDeployment::Create(SimWorld* world, SimHost* master_host,
                                        const std::vector<SimHost*>& rs_hosts,
                                        HdfsNameNode* namenode, HbaseConfig config,
                                        uint64_t seed) {
  HbaseDeployment deployment;
  // Protocol-level boundaries, declared before any client process exists.
  analysis::PropagationRegistry& graph = world->propagation();
  graph.DeclareComponent("client", /*client_entry=*/true);
  analysis::DeclareRpcBoundary(&graph, "client", "RS", "ClientService");
  graph.DeclareEdge(analysis::PropagationEdge{"RS", "RS", "queue", "RpcExecutor",
                                              /*forwards_baggage=*/true});
  graph.DeclareEdge(analysis::PropagationEdge{"RS", "RS", "continuation", "memstore flush",
                                              /*forwards_baggage=*/true});
  deployment.master = world->AddProcess(master_host, "HBaseMaster", "HBaseMaster");
  deployment.config = std::make_unique<HbaseConfig>(config);
  Rng rng(seed);
  for (SimHost* host : rs_hosts) {
    SimProcess* proc = world->AddProcess(host, "RegionServer", "RS");
    deployment.region_servers.push_back(std::make_unique<HbaseRegionServer>(
        proc, namenode, deployment.config.get(), rng.NextUint64()));
  }
  return deployment;
}

}  // namespace pivot
