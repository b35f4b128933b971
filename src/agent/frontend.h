// Frontend: the client-facing entry point of Pivot Tracing (Fig 2 ①②⑦⑧).
//
// Users hand the frontend query text; it parses, optimizes and compiles the
// query to advice, publishes a weave command to every agent, and merges the
// streaming partial results the agents report back cumulatively (Results),
// keeping each reporting interval's reports as received: Series is the
// streaming dataset of results (§1), one entry per interval, behind
// time-series views like Fig 1a.

#ifndef PIVOT_SRC_AGENT_FRONTEND_H_
#define PIVOT_SRC_AGENT_FRONTEND_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/agent/protocol.h"
#include "src/analysis/query_linter.h"
#include "src/bus/message_bus.h"
#include "src/common/status.h"
#include "src/core/tracepoint.h"
#include "src/query/compiler.h"

namespace pivot {

// Install-time policy knobs. The static analyzer (src/analysis) gates every
// install: error-severity findings always reject, warning-severity findings
// reject unless `force` is set (the --force escape hatch), infos never block.
struct InstallOptions {
  // The §4 optimizations (off in the ablation benches). Compiling without
  // pushdown deliberately produces fat packs, so the dead-packed-column lint
  // (PT207) follows `compiler.pushdown`.
  QueryCompiler::Options compiler;
  // Accept the query despite warning-severity diagnostics.
  bool force = false;
  // PT305 worst-case baggage growth budget (tuple-cells per request).
  // Exceeding it is error-severity: force does NOT override it.
  size_t baggage_budget = analysis::kDefaultBaggageBudget;
};

// One agent's view of one query, as the frontend knows it (from weave acks,
// reports, and heartbeats). Key: "host/process_name".
struct AgentQueryView {
  int64_t ack_micros = -1;             // Weave acknowledged; -1 if never.
  int64_t last_report_micros = -1;     // Last non-empty report; -1 if never.
  int64_t last_heartbeat_micros = -1;  // Last heartbeat; -1 if never.
  uint64_t reports = 0;                // Non-empty reports received.
  uint64_t tuples = 0;                 // Tuples received in those reports.
  uint64_t reports_suppressed = 0;     // From the latest heartbeat.
};

class Frontend {
 public:
  // `schema` is a registry holding every tracepoint definition in the system,
  // used to validate queries at compile time (nullable to skip validation).
  Frontend(MessageBus* bus, const TracepointRegistry* schema);
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  // Clock used to timestamp query lifecycle events (install/first-tuple/
  // uninstall). Defaults to MonotonicMicros, the clock agents stamp acks
  // with on a default ProcessRuntime; the simulator installs simulated
  // time so StatusReport lines up with agent report timestamps.
  void set_now_micros(std::function<int64_t()> now_micros);

  // Named-query registry for subquery joins (register Q8, then install Q9).
  Status RegisterNamedQuery(const std::string& name, std::string_view text);

  // Deployment propagation graph (src/analysis/causality_graph.h) consulted
  // by the install gate's reachability passes (PT301/PT302/PT303/PT305).
  // Null (the default) skips those passes. Not owned; must outlive the
  // frontend. The simulator wires the SimWorld's registry here.
  void set_propagation(const analysis::PropagationRegistry* propagation);

  // Parses, compiles and installs a query; returns its id. The install gate
  // lints the compiled query exactly once, against the current install state
  // (live bags, propagation, budget), and rejects it as `options` dictates.
  // A pack stage equal to one a live query already packs (same tracepoints,
  // same program once upstream keys are resolved) takes that stage's bag key,
  // so the two queries share one bag; compiled(id) shows the shared keys.
  Result<uint64_t> Install(std::string_view text, const InstallOptions& options = {});

  // Compiles `text` and runs the same lint as Install's gate WITHOUT
  // installing anything. Returns the full structured report — including
  // error-severity findings, which Install would fold into a Status.
  // `options.force` does not apply: the caller reads the warnings.
  Result<analysis::QueryLintResult> Lint(std::string_view text,
                                         const InstallOptions& options = {}) const;

  // Installs the §4 "explain" form of a query: the same tracepoints, joins
  // and packing, but every stage counts tuples instead of computing the
  // final aggregation. Results(id) rows are ($stage, COUNT) — a live preview
  // of what the real query would pack and emit, per tracepoint.
  Result<uint64_t> InstallExplain(std::string_view text);

  // Removes the query's advice everywhere and stops collecting its results.
  // Accumulated results remain readable: the total is sealed into its wire
  // form (ResultSet::EncodeNamed) and the merged set released, so an
  // uninstalled query holds bytes, not decoded groups. Uninstalling an
  // uninstalled query is Ok and does nothing. A bag shared with other queries
  // lives on until the last of them goes.
  Status Uninstall(uint64_t query_id);

  const CompiledQuery* compiled(uint64_t query_id) const;

  // The live pack stages: bag key -> its program and the active queries
  // packing it, the minting query first.
  analysis::LiveBags live_bags() const;

  // ---- Results ----

  // Cumulative results since installation: finalized aggregates (group fields
  // + aggregate columns) or all streamed rows. An uninstalled query's rows
  // are decoded from its sealed total on each call.
  std::vector<Tuple> Results(uint64_t query_id) const;

  // Per-interval results keyed by the agents' report timestamp (micros) —
  // the data behind the paper's time-series plots. Each interval is decoded
  // from the reports it received, on each call.
  std::map<int64_t, std::vector<Tuple>> Series(uint64_t query_id) const;

  // Drops per-interval results older than `before_micros` for one query (or
  // for all queries when query_id is 0). Cumulative totals are unaffected.
  // Standing queries otherwise accumulate one interval entry per second
  // forever; long-running monitors should trim periodically.
  void TrimSeriesBefore(uint64_t query_id, int64_t before_micros);

  // ---- Statistics ----

  // Reports and tuples received for installed queries: the sums of the
  // per-agent views below. Reports for unknown or uninstalled queries are
  // dropped and counted by frontend.reports_dropped.
  uint64_t reports_received() const;
  uint64_t tuples_received() const;

  // Query lifecycle + per-agent health snapshot (docs/OBSERVABILITY.md).
  struct QueryStatus {
    uint64_t query_id = 0;
    bool active = true;
    bool aggregated = false;
    std::vector<std::string> tracepoints;  // Advice targets, sorted unique.
    int64_t installed_micros = -1;
    int64_t first_ack_micros = -1;     // First agent weave ack.
    int64_t first_tuple_micros = -1;   // First report carrying tuples.
    int64_t last_report_micros = -1;   // Most recent non-empty report.
    int64_t uninstalled_micros = -1;
    uint64_t reports = 0;  // Sums of the agent views' counts.
    uint64_t tuples = 0;
    // Encoded result bytes the frontend keeps for the query: its intervals'
    // report slices plus, once uninstalled, its sealed total.
    uint64_t held_bytes = 0;
    std::map<std::string, AgentQueryView> agents;  // "host/process" -> view.
    // Bags the query packs; for a shared bag, the other active queries
    // packing it.
    struct PackedBag {
      BagKey key = 0;
      std::vector<uint64_t> shared_with;
    };
    std::vector<PackedBag> bags;
  };
  std::vector<QueryStatus> QueryStatuses() const;

  // Human-readable operational dump: per-query lifecycle and agent health
  // (quiet vs dead), bus topic traffic, and the global telemetry registry.
  // The JSON form carries the same data for machine consumption.
  std::string StatusReport() const;
  std::string StatusReportJson() const;

 private:
  struct QueryResults {
    explicit QueryResults(CompiledQuery c) : compiled(std::move(c)), total(compiled.plan) {}
    CompiledQuery compiled;
    // Since installation, merged report by report; once uninstalled, an empty
    // set of the plan, and the total is `sealed`.
    ResultSet total;
    // An uninstalled query's total as `names, set` slices (EncodeNamed),
    // stored at its exact size.
    std::vector<uint8_t> sealed;
    // Keyed by report timestamp: the interval's reports as received, their
    // `names, set` slices (ReceivedReport::wire) in arrival order. Merged only
    // when Series decodes them.
    std::map<int64_t, std::vector<uint8_t>> intervals;
    // Lifecycle (frontend clock; agent report timestamps for report events)
    // and agent views. QueryStatuses fills in the totals and bags.
    QueryStatus status;
  };

  // Parses `text` and compiles it with `options` under the next query id,
  // then advances that id by `mint` (0 only peeks). Text that does not parse
  // mints nothing.
  Result<CompiledQuery> CompileText(std::string_view text, const QueryCompiler::Options& options,
                                    uint64_t mint) const;

  // The install gate: lints `compiled` (whose id this frontend minted) and
  // publishes its weave command unless the lint rejects it.
  Result<uint64_t> InstallCompiled(CompiledQuery compiled, const InstallOptions& options);

  // The one lint both Install and Lint run: the whole-query linter over
  // `compiled` with the frontend's schema, the live bags, the propagation
  // graph and `options.baggage_budget`; the dead-packed-column lint (PT207)
  // runs when `options.compiler.pushdown` is on.
  analysis::QueryLintResult LintCompiled(const CompiledQuery& compiled,
                                         const InstallOptions& options) const;

  void HandleReport(const BusMessage& msg);
  // Decodes and merges one agent flush (a kBatch frame): every report and
  // heartbeat under a single hold of mu_.
  void HandleBatch(const std::vector<uint8_t>& payload);
  int64_t NowMicros() const;

  // Walks `compiled`'s pack stages in topological order (the compiler's
  // advice order). A stage equal to a live one takes its key, in its Pack and
  // in every downstream Unpack; any other stage registers under its own key.
  // Advice is rewritten only when some stage is shared.
  void ShareLiveBagsLocked(CompiledQuery* compiled);

  MessageBus* bus_;
  const TracepointRegistry* schema_;
  const analysis::PropagationRegistry* propagation_ = nullptr;  // Guarded by mu_.
  QueryRegistry named_queries_;
  MessageBus::SubscriberId subscription_ = 0;

  mutable std::mutex mu_;
  std::function<int64_t()> now_micros_;  // Guarded by mu_ (set once at setup).
  mutable uint64_t next_query_id_ = 1;  // Guarded by mu_; minted by CompileText.
  std::map<uint64_t, QueryResults> queries_;
  analysis::LiveBags live_bags_;
};

}  // namespace pivot

#endif  // PIVOT_SRC_AGENT_FRONTEND_H_
