#include "src/hadoop/tracepoints.h"

#include "src/telemetry/self_trace.h"

namespace pivot {

Tracepoint* GetOrDefineTracepoint(SimProcess* proc, TracepointDef def) {
  if (Tracepoint* existing = proc->registry()->Find(def.name)) {
    return existing;
  }
  return proc->DefineTracepoint(std::move(def));
}

void RegisterHadoopTracepointDefs(TracepointRegistry* schema) {
  for (const TracepointDef& def :
       {ClientProtocolsDef(), NnGetBlockLocationsDef(), NnClientProtocolDef(),
        NnClientProtocolDoneDef(), DnDataTransferProtocolDef(), DnTransferDoneDef(),
        IncrBytesReadDef(),
        IncrBytesWrittenDef(), FileInputStreamReadDef(), FileOutputStreamWriteDef(),
        StressTestDoNextOpDef(), HbaseClientServiceDef(), RsQueueDoneDef(), RsProcessDoneDef(),
        RsMemstoreFlushDef(), HbaseRequestSentDef(), HbaseResponseReceivedDef(),
        MrAppClientProtocolDef(),
        JobCompleteDef(), YarnContainerStartDef(), MapTaskDoneDef(), ReduceTaskDoneDef()}) {
    if (schema->Find(def.name) == nullptr) {
      Result<Tracepoint*> result = schema->Define(def);
      (void)result;
    }
  }
  // The self-telemetry meta-tracepoints are part of the queryable vocabulary
  // wherever the Hadoop stack is (SimProcess defines them per process).
  telemetry::RegisterSelfTracepointDefs(schema);
}

namespace {

// `component` anchors the tracepoint in the propagation graph
// (docs/TRACEPOINTS.md); empty means the tracepoint fires in more than one
// component and stays unanchored (reachability passes skip it).
TracepointDef Make(const char* name, std::vector<std::string> exports,
                   const char* component = "") {
  TracepointDef def;
  def.name = name;
  def.exports = std::move(exports);
  def.component = component;
  return def;
}

}  // namespace

TracepointDef ClientProtocolsDef() {
  // The union of the client protocol entry points of HDFS
  // (DataTransferProtocol), HBase (ClientService) and MapReduce
  // (ApplicationClientProtocol) — the pack site of Q2.
  return Make(kTpClientProtocols, {"procName", "system"}, "client");
}

TracepointDef NnGetBlockLocationsDef() {
  return Make(kTpNnGetBlockLocations, {"src", "replicas"}, "NN");
}

TracepointDef NnClientProtocolDef() {
  return Make(kTpNnClientProtocol, {"op", "src"}, "NN");
}

TracepointDef NnClientProtocolDoneDef() {
  return Make(kTpNnClientProtocolDone, {"op", "lockwait"}, "NN");
}

TracepointDef DnDataTransferProtocolDef() {
  return Make(kTpDnDataTransferProtocol, {"op", "src"}, "DN");
}

TracepointDef DnTransferDoneDef() {
  return Make(kTpDnTransferDone, {"op", "transfer", "blocked", "gc"}, "DN");
}

TracepointDef IncrBytesReadDef() {
  return Make(kTpIncrBytesRead, {"delta"}, "DN");
}

TracepointDef IncrBytesWrittenDef() {
  return Make(kTpIncrBytesWritten, {"delta"}, "DN");
}

TracepointDef FileInputStreamReadDef() {
  return Make(kTpFileInputStreamRead, {"delta", "category"});
}

TracepointDef FileOutputStreamWriteDef() {
  return Make(kTpFileOutputStreamWrite, {"delta", "category"});
}

TracepointDef StressTestDoNextOpDef() {
  return Make(kTpStressTestDoNextOp, {"op"}, "client");
}

TracepointDef HbaseClientServiceDef() {
  return Make(kTpHbaseClientService, {"op", "row"}, "RS");
}

TracepointDef RsQueueDoneDef() {
  return Make(kTpRsQueueDone, {"queue"}, "RS");
}

TracepointDef RsProcessDoneDef() {
  return Make(kTpRsProcessDone, {"process"}, "RS");
}

TracepointDef RsMemstoreFlushDef() {
  return Make(kTpRsMemstoreFlush, {"bytes"}, "RS");
}

TracepointDef HbaseRequestSentDef() {
  return Make(kTpHbaseRequestSent, {"op"}, "client");
}

TracepointDef HbaseResponseReceivedDef() {
  return Make(kTpHbaseResponseReceived, {"op"}, "client");
}

TracepointDef MrAppClientProtocolDef() {
  return Make(kTpMrAppClientProtocol, {"op", "job"}, "client");
}

TracepointDef JobCompleteDef() {
  return Make(kTpJobComplete, {"id"}, "client");
}

TracepointDef YarnContainerStartDef() {
  return Make(kTpYarnContainerStart, {"container", "job"}, "NM");
}

TracepointDef MapTaskDoneDef() {
  return Make(kTpMapTaskDone, {"job", "task"}, "MRTask");
}

TracepointDef ReduceTaskDoneDef() {
  return Make(kTpReduceTaskDone, {"job", "task"}, "MRTask");
}

}  // namespace pivot
