// ExecutionContext: the per-request state that travels with an execution.
//
// The paper's prototype stores baggage in a JVM thread-local and relies on
// AspectJ-instrumented Thread/Runnable/Queue classes to carry it across
// execution boundaries (§5, §6 "Hadoop Instrumentation"). Here the same role
// is played by ExecutionContext: it owns the request's Baggage, identifies
// the process the request is currently executing in, provides the timestamp
// source, and (optionally) records the happened-before DAG for ground-truth
// evaluation.
//
// Contexts travel explicitly: the caller hands a context from task to task,
// Fork/Join it at branch points and Depart/Arrive it across a process
// boundary (the simulator's SimRpcCall and SimWorld::Cross; a real-thread
// host passes the forked context or its serialized baggage to the worker).
// Table 4's pack/unpack/serialize/deserialize are Baggage members; its
// split/join are Fork/Join here.

#ifndef PIVOT_SRC_CORE_CONTEXT_H_
#define PIVOT_SRC_CORE_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/baggage.h"
#include "src/core/trace_graph.h"

namespace pivot {

// Sink for tuples emitted by advice (the process-local PT agent implements
// this; §5 "Tuples emitted by advice are accumulated by the local agent").
class EmitSink {
 public:
  virtual ~EmitSink() = default;
  virtual void EmitTuple(uint64_t query_id, const Tuple& t) = 0;
};

// Identity of the process an execution is currently running in. These back
// the default tracepoint exports: host, procname, procid (§3).
struct ProcessInfo {
  std::string host;
  std::string process_name;
  int64_t process_id = 0;
};

class Tracepoint;

// Per-process handles to the self-telemetry meta-tracepoints — ordinary
// tracepoints whose events are the tracing system's own activity, so Pivot
// Tracing queries can run over Pivot Tracing itself (telemetry/self_trace.h,
// docs/OBSERVABILITY.md). Null members simply never fire.
struct MetaTracepoints {
  const Tracepoint* baggage_serialize = nullptr;  // exports queryId, bytes, tuples, instances
  const Tracepoint* agent_flush = nullptr;        // exports queryId, tuples, bytes, suppressed
};

// Per-process runtime wiring shared by all requests executing in the process.
// Lifetime: outlives every ExecutionContext that points at it.
struct ProcessRuntime {
  ProcessInfo info;
  // Timestamp source in microseconds; defaults to MonotonicMicros, the
  // simulator installs simulated time.
  std::function<int64_t()> now_micros;
  // Destination for Emit ops; null drops emitted tuples (tracepoints woven
  // with no agent attached).
  EmitSink* sink = nullptr;
  // Self-telemetry tracepoints of this process (telemetry::BindMetaTracepoints).
  MetaTracepoints meta;

  int64_t NowMicros() const;
};

// The per-request execution context. Move-only: there is exactly one context
// per branch of an execution; branching and rejoining go through Fork/Join so
// that baggage versioning stays correct.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  explicit ExecutionContext(ProcessRuntime* runtime) : runtime_(runtime) {}

  ExecutionContext(ExecutionContext&&) = default;
  ExecutionContext& operator=(ExecutionContext&&) = default;
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  ProcessRuntime* runtime() const { return runtime_; }
  void set_runtime(ProcessRuntime* runtime) { runtime_ = runtime; }

  Baggage& baggage() { return baggage_; }
  const Baggage& baggage() const { return baggage_; }
  void set_baggage(Baggage b) { baggage_ = std::move(b); }

  // ---- Ground-truth trace recording (optional; see trace_graph.h) ----

  // Attaches this context to a recorder, starting a fresh trace.
  void StartTrace(TraceRecorder* recorder);
  // Attaches to an existing trace (e.g. server side of an RPC).
  void AttachTrace(TraceRecorder* recorder, uint64_t trace_id, EventId current);

  TraceRecorder* recorder() const { return recorder_; }
  uint64_t trace_id() const { return trace_id_; }
  EventId current_event() const { return current_event_; }

  // Appends an event caused by the current one and advances; no-op without a
  // recorder. Tracepoint::Invoke calls this once per invocation.
  EventId AdvanceEvent();

  // ---- Branching ----

  // Forks this context for a branching execution: baggage splits (§5), and if
  // recording, both sides get fresh events with the current event as parent.
  // `this` becomes one branch; the returned context is the other.
  ExecutionContext Fork();

  // Merges a completed branch back into this one: baggage joins, and if
  // recording, a join event with both branches as parents is appended.
  void Join(ExecutionContext&& other);

 private:
  ProcessRuntime* runtime_ = nullptr;
  Baggage baggage_;
  TraceRecorder* recorder_ = nullptr;
  uint64_t trace_id_ = 0;
  EventId current_event_ = kNoEvent;
};

// ---- Process boundaries (Table 4's serialize/deserialize pair) ----

// What crosses a process boundary on behalf of one execution: the serialized
// baggage, plus the ground-truth trace attachment (recorder, trace id and
// current event; null recorder when not recording).
struct ContextOnWire {
  std::vector<uint8_t> baggage;
  TraceRecorder* recorder = nullptr;
  uint64_t trace_id = 0;
  EventId event = kNoEvent;
};

// Sender half of a crossing. Serializes `ctx`'s baggage and, when the process
// defines a woven `Baggage.Serialize` meta-tracepoint, fires it with the
// serialization's byte/tuple accounting: one invocation per query
// contributing bags plus a `queryId = 0` invocation carrying the framing
// bytes, so SUM(bytes) over the invocations equals the serialized size. The
// stats pass is skipped entirely when the meta-tracepoint is absent or
// unwoven. The trace attachment is captured after those invocations.
ContextOnWire Depart(ExecutionContext* ctx);

// Receiver half: a fresh context executing in `to`, carrying the decoded
// baggage and the sender's trace attachment. Bytes that fail to decode are
// counted by baggage.deserialize_errors and yield pristine baggage (debug
// builds assert: the simulator never corrupts the wire).
ExecutionContext Arrive(ContextOnWire wire, ProcessRuntime* to);

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_CONTEXT_H_
