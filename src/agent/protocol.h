// Control-plane protocol between the Pivot Tracing frontend and PT agents.
//
// Three message kinds flow over the bus (Fig 2):
//   Weave    frontend → agents: query id, per-tracepoint advice, result plan
//   Unweave  frontend → agents: query id
//   Report   agent → frontend: one interval's partial results for one query:
//            its column names once, then the set in a baggage bag's form
//
// Reports and heartbeats travel only inside a ReportBatch (kBatch): one frame
// per agent flush carrying every query's report, so bus traffic scales with
// flushes, not active queries.
//
// Everything is byte-encoded with the wire codec so the protocol crosses
// (simulated) process boundaries the same way a real deployment would.

#ifndef PIVOT_SRC_AGENT_PROTOCOL_H_
#define PIVOT_SRC_AGENT_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/advice.h"
#include "src/core/aggregation.h"
#include "src/core/tuple.h"

namespace pivot {

struct WeaveCommand {
  uint64_t query_id = 0;
  std::vector<std::pair<std::string, Advice::Ptr>> advice;  // (tracepoint, advice).
  ResultPlan plan;
};

// One query's partial results for the interval a ReportBatch covers: the
// agent's interval set (aggregate state or streamed rows, as the query's
// ResultPlan says). It travels as its ColumnNames() and then its one wire
// form (ResultSet::Encode, the same bytes a baggage bag holds).
struct AgentReport {
  AgentReport(uint64_t id, ResultSet set) : query_id(id), results(std::move(set)) {}

  uint64_t query_id = 0;
  ResultSet results;
};

// A report as DecodeControlMessage hands it over: its `names, set` bytes as
// received, checked against a set of its query (docs/WIRE_FORMAT.md "Control
// plane"). The receiver merges them into a set of the query, and may keep
// them: ResultSet::DecodeSlices reads them. The frame is re-Put only when
// the batch's empty-row bound capped its rows.
struct ReceivedReport {
  uint64_t query_id = 0;
  uint64_t rows = 0;  // The rows of its set, after the empty-row bound.
  std::vector<uint8_t> wire;
};

// Agent -> frontend: acknowledges that a weave command was applied locally.
// Lets the frontend timestamp the install -> woven-everywhere transition in
// StatusReport() instead of inferring it from the first report.
struct WeaveAck {
  uint64_t query_id = 0;
  std::string host;
  std::string process_name;
  int64_t timestamp_micros = 0;
};

// Agent -> frontend heartbeat for a quiet query: the agent has data-free
// flushes to report (suppressed reports), so the frontend can distinguish
// "query matched nothing" from "agent stopped flushing" (docs/OBSERVABILITY.md).
struct AgentStats {
  uint64_t query_id = 0;
  uint64_t reports_suppressed = 0;  // Empty flushes since weave.
};

// Agent -> frontend: everything one Flush produced, in a single frame. The
// agent identity and interval timestamp are sent once, in the batch header
// (every report/heartbeat of one flush shares them), so the wire cost of a
// flush is one bus publish regardless of how many queries reported. An agent
// sends a ReportBatch of AgentReports; a receiver decodes a ReceivedBatch.
template <typename Report>
struct Batch {
  std::string host;
  std::string process_name;
  int64_t timestamp_micros = 0;  // End of the interval this flush covers.
  std::vector<Report> reports;
  std::vector<AgentStats> heartbeats;
};
using ReportBatch = Batch<AgentReport>;
using ReceivedBatch = Batch<ReceivedReport>;

enum class ControlMessageType : uint8_t {
  kWeave = 1,
  kUnweave = 2,
  // 3 and 6 are unassigned: reports and heartbeats travel only in kBatch.
  // Agent startup announcement (agent -> frontend): prompts the frontend to
  // re-publish the weave commands of all active queries, so processes that
  // start *after* a query was installed still weave it ("standing queries
  // for long-running system monitoring", §1).
  kHello = 4,
  kWeaveAck = 5,
  kBatch = 7,
};

std::vector<uint8_t> EncodeWeave(const WeaveCommand& cmd);
std::vector<uint8_t> EncodeUnweave(uint64_t query_id);
std::vector<uint8_t> EncodeHello();
std::vector<uint8_t> EncodeWeaveAck(const WeaveAck& ack);
// Each report is encoded straight from its set. If `report_bytes` is
// non-null it receives, per batch.reports entry, the number of encoded bytes
// that report contributed to the frame (the per-query cost exported by the
// PTAgent.Flush meta-tracepoint).
std::vector<uint8_t> EncodeReportBatch(const ReportBatch& batch,
                                       std::vector<size_t>* report_bytes = nullptr);

// How a receiver checks kBatch reports: maps a report's query id to a set of
// that query (the receiver's running total, say). A report is kept only if
// DecodeNamed would take it into an empty set like that one
// (ResultSet::Accepts), so an aggregate's names must be that set's state
// columns. A streaming report may name a column not yet interned only while
// that set is empty, and only as its query's first report in the frame;
// nothing is interned until the receiver merges the report. Null skips the
// report, as does decoding without a lookup; a skipped report's values are
// still checked against its names. A frame with any bad report is refused
// whole, so a receiver merges all of a frame's reports or none.
using ReportSetLookup = std::function<const ResultSet*(uint64_t query_id)>;

// Decoded union; `type` selects the valid member.
struct ControlMessage {
  ControlMessageType type = ControlMessageType::kWeave;
  WeaveCommand weave;
  uint64_t unweave_query_id = 0;
  WeaveAck weave_ack;
  ReceivedBatch batch;
};

Result<ControlMessage> DecodeControlMessage(const std::vector<uint8_t>& payload,
                                            const ReportSetLookup& report_sets = {});

}  // namespace pivot

#endif  // PIVOT_SRC_AGENT_PROTOCOL_H_
