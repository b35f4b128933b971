#include "src/telemetry/self_trace.h"

namespace pivot {
namespace telemetry {

TracepointDef BaggageSerializeDef() {
  TracepointDef def;
  def.name = kTpBaggageSerialize;
  def.exports = {"queryId", "bytes", "tuples", "instances"};
  return def;
}

TracepointDef AgentFlushDef() {
  TracepointDef def;
  def.name = kTpAgentFlush;
  def.exports = {"queryId", "tuples", "bytes", "suppressed"};
  return def;
}

std::vector<TracepointDef> SelfTracepointDefs() {
  return {BaggageSerializeDef(), AgentFlushDef()};
}

void BindMetaTracepoints(const TracepointRegistry& registry, MetaTracepoints* meta) {
  meta->baggage_serialize = registry.Find(kTpBaggageSerialize);
  meta->agent_flush = registry.Find(kTpAgentFlush);
}

void RegisterSelfTracepointDefs(TracepointRegistry* schema) {
  for (TracepointDef& def : SelfTracepointDefs()) {
    if (schema->Find(def.name) == nullptr) {
      Result<Tracepoint*> result = schema->Define(std::move(def));
      (void)result;
    }
  }
}

}  // namespace telemetry
}  // namespace pivot
