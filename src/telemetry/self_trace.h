// Meta-tracing: Pivot Tracing instruments itself.
//
// The telemetry subsystem's own events are exposed as ordinary
// pivot::Tracepoints, so users can run ordinary Pivot Tracing queries *over
// Pivot Tracing* — e.g.
//
//   From b In Baggage.Serialize
//   GroupBy b.queryId
//   Select b.queryId, SUM(b.bytes)
//
// reproduces Fig 10 (baggage bytes on the wire, attributed per query) live,
// from inside the system, and
//
//   From f In PTAgent.Flush GroupBy f.host Select f.host, SUM(f.tuples)
//
// reproduces the §6 tuple-traffic accounting. The meta-tracepoints obey the
// same contract as application tracepoints: unwoven they cost one relaxed
// load + branch (the fire sites additionally gate on Tracepoint::enabled()
// so that export materialization is skipped entirely), and advice can be
// woven/unwoven at any time.
//
// Fire sites:
//   Baggage.Serialize — every process-boundary crossing, via Depart
//     (context.h; the simulator's RPCs). One invocation per query
//     contributing bags, plus one `queryId = 0` invocation carrying
//     the framing bytes (instance ids, counts), so SUM(b.bytes) equals the
//     actual serialized size. A bag shared by several queries counts once,
//     under the `queryId` of the query that minted its key.
//   PTAgent.Flush — once per (query, flush) in PTAgent::Flush, only when the
//     agent publishes a non-empty report for the query (`suppressed` counts
//     the query's quiet intervals so far, which publish nothing).

#ifndef PIVOT_SRC_TELEMETRY_SELF_TRACE_H_
#define PIVOT_SRC_TELEMETRY_SELF_TRACE_H_

#include <vector>

#include "src/core/context.h"
#include "src/core/tracepoint.h"

namespace pivot {
namespace telemetry {

// Meta-tracepoint names (query-facing vocabulary).
inline constexpr char kTpBaggageSerialize[] = "Baggage.Serialize";
inline constexpr char kTpAgentFlush[] = "PTAgent.Flush";

// Definition builders.
TracepointDef BaggageSerializeDef();  // exports queryId, bytes, tuples, instances
TracepointDef AgentFlushDef();        // exports queryId, tuples, bytes, suppressed

// All meta-tracepoint definitions.
std::vector<TracepointDef> SelfTracepointDefs();

// Looks up the meta-tracepoints by name in a registry that defines
// SelfTracepointDefs(). Missing names leave the corresponding member null.
void BindMetaTracepoints(const TracepointRegistry& registry, MetaTracepoints* meta);

// Schema-only registration for query validation (mirrors the pattern of
// RegisterHadoopTracepointDefs).
void RegisterSelfTracepointDefs(TracepointRegistry* schema);

}  // namespace telemetry
}  // namespace pivot

#endif  // PIVOT_SRC_TELEMETRY_SELF_TRACE_H_
