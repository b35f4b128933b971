// Simulated RPC with baggage on the wire.
//
// This is where the paper's "we manually extended the protocol definitions of
// the systems" (§6) materializes, once for every protocol: each leg of an RPC
// is one hop over core's Depart/Arrive pair. The request leg departs the
// caller's context (serializing its baggage), the bytes ride the request
// across both NICs (so baggage size costs real simulated bandwidth), and the
// context arrives server-side; the response leg carries the (possibly grown)
// baggage back the same way. Intra-host calls skip the network but still
// exercise the serialize/deserialize path, matching "serialization costs are
// only incurred ... at network or application boundaries".

#ifndef PIVOT_SRC_SIMSYS_SIM_RPC_H_
#define PIVOT_SRC_SIMSYS_SIM_RPC_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "src/simsys/sim_world.h"

namespace pivot {

// Server-side completion: the handler calls this with the (updated) context
// and the application-level response size.
using RpcRespond = std::function<void(CtxPtr, uint64_t response_bytes)>;

// Server-side handler: receives the request's context, must eventually call
// the RpcRespond exactly once (possibly after further async simulated work).
using RpcHandler = std::function<void(CtxPtr, RpcRespond)>;

// Client-side completion: receives the context carrying the callee's baggage.
using RpcDone = std::function<void(CtxPtr)>;

struct RpcStats {
  // Cumulative across all calls made through SimRpcCall. Relaxed atomics:
  // handlers on concurrent test threads mutate these, and a bare uint64_t
  // is a data race under PIVOT_SANITIZE=thread. Counters only — no ordering
  // is implied and none is needed.
  static std::atomic<uint64_t> total_calls;
  static std::atomic<uint64_t> total_baggage_bytes;
  static void Reset();
};

// Issues an RPC from `client` to `server`:
//   1. serializes ctx's baggage (bytes added to the request payload),
//   2. models request transfer over client nic_out then server nic_in,
//   3. runs `handler` with a server-side context (handlers honour their
//      process's GC-pause window themselves, so they can export it),
//   4. models response transfer (with re-serialized baggage) and resumes
//      `done` with a client-side context.
// `request_bytes` / response bytes are application payload sizes.
void SimRpcCall(SimProcess* client, SimProcess* server, CtxPtr ctx, uint64_t request_bytes,
                RpcHandler handler, RpcDone done);

}  // namespace pivot

#endif  // PIVOT_SRC_SIMSYS_SIM_RPC_H_
