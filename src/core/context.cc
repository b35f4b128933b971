#include "src/core/context.h"

#include <cassert>

#include "src/common/clock.h"
#include "src/core/tracepoint.h"

namespace pivot {

int64_t ProcessRuntime::NowMicros() const {
  if (now_micros) {
    return now_micros();
  }
  return MonotonicMicros();
}

void ExecutionContext::StartTrace(TraceRecorder* recorder) {
  recorder_ = recorder;
  trace_id_ = recorder->NewTrace();
  current_event_ = recorder->graph(trace_id_)->AddEvent({});
}

void ExecutionContext::AttachTrace(TraceRecorder* recorder, uint64_t trace_id, EventId current) {
  recorder_ = recorder;
  trace_id_ = trace_id;
  current_event_ = current;
}

EventId ExecutionContext::AdvanceEvent() {
  if (recorder_ == nullptr) {
    return kNoEvent;
  }
  current_event_ = recorder_->graph(trace_id_)->AddEvent({current_event_});
  return current_event_;
}

ExecutionContext ExecutionContext::Fork() {
  ExecutionContext other(runtime_);
  auto [mine, theirs] = baggage_.Split();
  baggage_ = std::move(mine);
  other.baggage_ = std::move(theirs);
  if (recorder_ != nullptr) {
    // Both branches start from distinct events caused by the branch point.
    TraceGraph* g = recorder_->graph(trace_id_);
    EventId branch_point = current_event_;
    current_event_ = g->AddEvent({branch_point});
    other.AttachTrace(recorder_, trace_id_, g->AddEvent({branch_point}));
  }
  return other;
}

void ExecutionContext::Join(ExecutionContext&& other) {
  baggage_ = Baggage::Join(baggage_, other.baggage_);
  if (recorder_ != nullptr && other.recorder_ == recorder_ && other.trace_id_ == trace_id_) {
    current_event_ =
        recorder_->graph(trace_id_)->AddEvent({current_event_, other.current_event_});
  }
  other.baggage_.Clear();
}

ContextOnWire Depart(ExecutionContext* ctx) {
  const Tracepoint* tp =
      ctx->runtime() != nullptr ? ctx->runtime()->meta.baggage_serialize : nullptr;
  // Fire only when someone is listening: the stats pass walks every bag, so
  // skip it unless advice is woven (or a ground-truth trace wants the event).
  // Unrequested stats stay empty, and so do those of trivial baggage, which
  // serializes to nothing: neither reports an event.
  bool fire = tp != nullptr && (tp->enabled() || ctx->recorder() != nullptr);
  Baggage::SerializeStats stats;
  std::vector<uint8_t> bytes = ctx->baggage().Serialize(fire ? &stats : nullptr);
  uint64_t attributed = 0;
  // One event per minting query: a bag shared across queries is charged to
  // the query whose key it carries (BagKeyQuery), never split between them.
  for (const auto& [query_id, share] : stats.queries) {
    attributed += share.bytes;
    tp->Invoke(ctx, {{"queryId", Value(static_cast<int64_t>(query_id))},
                     {"bytes", Value(static_cast<int64_t>(share.bytes))},
                     {"tuples", Value(static_cast<int64_t>(share.tuples))},
                     {"instances", Value(static_cast<int64_t>(stats.instances))}});
  }
  // Framing bytes (instance ids, counts, generation numbers) under queryId 0,
  // so SUM(bytes) grouped or not equals the serialized size exactly.
  uint64_t framing = stats.bytes > attributed ? stats.bytes - attributed : 0;
  if (framing > 0) {
    tp->Invoke(ctx, {{"queryId", Value(int64_t{0})},
                     {"bytes", Value(static_cast<int64_t>(framing))},
                     {"tuples", Value(int64_t{0})},
                     {"instances", Value(static_cast<int64_t>(stats.instances))}});
  }
  // Captured after the invocations above, which advance the current event.
  return {std::move(bytes), ctx->recorder(), ctx->trace_id(), ctx->current_event()};
}

ExecutionContext Arrive(ContextOnWire wire, ProcessRuntime* to) {
  ExecutionContext ctx(to);
  Result<Baggage> baggage = Baggage::Deserialize(wire.baggage);
  assert(baggage.ok() && "baggage corrupted in transit");
  if (baggage.ok()) {
    ctx.set_baggage(std::move(baggage).value());
  }
  if (wire.recorder != nullptr) {
    ctx.AttachTrace(wire.recorder, wire.trace_id, wire.event);
  }
  return ctx;
}

}  // namespace pivot
