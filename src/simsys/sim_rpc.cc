#include "src/simsys/sim_rpc.h"

namespace pivot {

std::atomic<uint64_t> RpcStats::total_calls{0};
std::atomic<uint64_t> RpcStats::total_baggage_bytes{0};

void RpcStats::Reset() {
  total_calls.store(0, std::memory_order_relaxed);
  total_baggage_bytes.store(0, std::memory_order_relaxed);
}

namespace {

// One leg of an RPC: `ctx` departs `from`, its baggage rides along with
// `payload_bytes` of application data over from's nic_out then to's nic_in
// (no network between processes on one host), and `arrive` runs with a fresh
// context executing in `to`.
void Hop(SimProcess* from, SimProcess* to, const char* kind, ExecutionContext* ctx,
         uint64_t payload_bytes, std::function<void(CtxPtr)> arrive) {
  ContextOnWire wire = Depart(ctx);
  RpcStats::total_baggage_bytes.fetch_add(wire.baggage.size(), std::memory_order_relaxed);
  // Ground truth for the propagation audit (PT304): record the boundary this
  // leg actually crosses, so undeclared protocol edges surface.
  from->world()->propagation().ObserveEdge(from->component(), to->component(), kind);
  uint64_t wire_bytes = payload_bytes + wire.baggage.size();
  auto land = [to, wire = std::move(wire), arrive = std::move(arrive)]() mutable {
    arrive(std::make_shared<ExecutionContext>(Arrive(std::move(wire), to->runtime())));
  };
  if (from->host() == to->host()) {
    from->world()->env()->Schedule(0, std::move(land));
    return;
  }
  from->host()->nic_out().Transfer(wire_bytes, [to, wire_bytes, land = std::move(land)]() mutable {
    to->host()->nic_in().Transfer(wire_bytes, std::move(land));
  });
}

}  // namespace

void SimRpcCall(SimProcess* client, SimProcess* server, CtxPtr ctx, uint64_t request_bytes,
                RpcHandler handler, RpcDone done) {
  RpcStats::total_calls.fetch_add(1, std::memory_order_relaxed);
  // GC/pause windows are honoured by the server handlers themselves (they
  // need to observe the pause duration to export it, cf. Fig 9b's DN GC).
  Hop(client, server, "rpc", ctx.get(), request_bytes,
      [client, server, handler = std::move(handler),
       done = std::move(done)](CtxPtr server_ctx) mutable {
        handler(std::move(server_ctx), [client, server, done = std::move(done)](
                                           CtxPtr response_ctx, uint64_t response_bytes) mutable {
          Hop(server, client, "rpc-response", response_ctx.get(), response_bytes, std::move(done));
        });
      });
}

}  // namespace pivot
