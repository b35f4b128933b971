#include "src/agent/frontend.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>

#include "src/common/clock.h"
#include "src/common/strings.h"
#include "src/core/advice_io.h"
#include "src/core/symbol.h"
#include "src/query/parser.h"
#include "src/telemetry/metrics.h"

namespace pivot {

namespace {

telemetry::Counter& DecodeErrorsCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("frontend.decode_errors");
  return c;
}

telemetry::Counter& ReportsDroppedCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("frontend.reports_dropped");
  return c;
}

// The distinct keys `advice` packs, in order of first appearance.
std::vector<BagKey> PackedBags(const std::vector<std::pair<std::string, Advice::Ptr>>& advice) {
  std::vector<BagKey> bags;
  for (const auto& [tp, adv] : advice) {
    for (const Advice::Op& op : adv->ops()) {
      if (op.kind == Advice::OpKind::kPack &&
          std::find(bags.begin(), bags.end(), op.bag) == bags.end()) {
        bags.push_back(op.bag);
      }
    }
  }
  return bags;
}

// Decodes `slices`, a run of `names, set` slices, into an empty set like
// `like`. The slices were merged once when they arrived (or were sealed from
// a set), so none fails here.
ResultSet DecodeSlices(const ResultSet& like, const std::vector<uint8_t>& slices) {
  ResultSet set = like.EmptyLike();
  const bool ok = set.DecodeSlices(slices);
  assert(ok);
  (void)ok;
  return set;
}

// The sum of one count over a query's agent views.
uint64_t SumOverAgents(const std::map<std::string, AgentQueryView>& agents,
                       uint64_t AgentQueryView::*count) {
  uint64_t sum = 0;
  for (const auto& [agent, view] : agents) {
    sum += view.*count;
  }
  return sum;
}

}  // namespace

Frontend::Frontend(MessageBus* bus, const TracepointRegistry* schema)
    : bus_(bus), schema_(schema) {
  subscription_ =
      bus_->Subscribe(kReportTopic, [this](const BusMessage& msg) { HandleReport(msg); });
}

Frontend::~Frontend() { bus_->Unsubscribe(subscription_); }

void Frontend::set_now_micros(std::function<int64_t()> now_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  now_micros_ = std::move(now_micros);
}

void Frontend::set_propagation(const analysis::PropagationRegistry* propagation) {
  std::lock_guard<std::mutex> lock(mu_);
  propagation_ = propagation;
}

void Frontend::ShareLiveBagsLocked(CompiledQuery* compiled) {
  const uint64_t id = compiled->query_id;
  std::map<BagKey, BagKey> shared;  // Compiler key -> live key.
  for (BagKey bag : PackedBags(compiled->advice)) {
    std::vector<uint8_t> program = PackStageProgram(compiled->advice, bag, shared);
    auto live = std::find_if(live_bags_.begin(), live_bags_.end(),
                             [&](const auto& entry) { return entry.second.program == program; });
    if (live != live_bags_.end()) {
      shared.emplace(bag, live->first);
      live->second.queries.push_back(id);
    } else {
      live_bags_.emplace(bag, analysis::LiveBag{std::move(program), {id}});
    }
  }
  if (shared.empty()) {
    return;
  }
  auto resolve = [&shared](BagKey key) {
    auto it = shared.find(key);
    return it == shared.end() ? key : it->second;
  };
  // A stage's advice is one program at each of its tracepoints: rewrite it once.
  std::map<const Advice*, Advice::Ptr> rewritten;
  for (auto& [tp, adv] : compiled->advice) {
    Advice::Ptr& copy = rewritten[adv.get()];
    if (copy == nullptr) {
      std::vector<Advice::Op> ops = adv->ops();
      for (Advice::Op& op : ops) {
        if (op.kind == Advice::OpKind::kPack || op.kind == Advice::OpKind::kUnpack) {
          op.bag = resolve(op.bag);
        }
      }
      copy = std::make_shared<const Advice>(std::move(ops));
    }
    adv = copy;
  }
}

int64_t Frontend::NowMicros() const {
  // Callers hold mu_.
  if (now_micros_) {
    return now_micros_();
  }
  return MonotonicMicros();
}

Status Frontend::RegisterNamedQuery(const std::string& name, std::string_view text) {
  Result<Query> q = ParseQuery(text);
  if (!q.ok()) {
    return q.status();
  }
  return named_queries_.Register(name, std::move(q).value());
}

Result<CompiledQuery> Frontend::CompileText(std::string_view text,
                                            const QueryCompiler::Options& options,
                                            uint64_t mint) const {
  Result<Query> parsed = ParseQuery(text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  uint64_t query_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    query_id = next_query_id_;
    next_query_id_ += mint;
  }
  return QueryCompiler(schema_, &named_queries_, options).Compile(parsed.value(), query_id);
}

Result<uint64_t> Frontend::Install(std::string_view text, const InstallOptions& options) {
  Result<CompiledQuery> compiled = CompileText(text, options.compiler, 1);
  if (!compiled.ok()) {
    return compiled.status();
  }
  return InstallCompiled(std::move(compiled).value(), options);
}

Result<analysis::QueryLintResult> Frontend::Lint(std::string_view text,
                                                 const InstallOptions& options) const {
  // Peeks at the next id: nothing is installed.
  Result<CompiledQuery> compiled = CompileText(text, options.compiler, 0);
  if (!compiled.ok()) {
    return compiled.status();
  }
  return LintCompiled(*compiled, options);
}

Result<uint64_t> Frontend::InstallExplain(std::string_view text) {
  // The shadow takes the id after the query's.
  Result<CompiledQuery> compiled = CompileText(text, {}, 2);
  if (!compiled.ok()) {
    return compiled.status();
  }
  // The counting shadow keeps the original packs but consumes only "$stage",
  // so it is linted as an unpushed query: no dead-packed-column lint.
  return InstallCompiled(MakeCountingQuery(*compiled, compiled->query_id + 1),
                         {.compiler = {.pushdown = false}});
}

analysis::QueryLintResult Frontend::LintCompiled(const CompiledQuery& compiled,
                                                 const InstallOptions& options) const {
  analysis::LiveBags installed;  // The live bags this query packs: all PT203 reads.
  analysis::LintOptions lint_options;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (BagKey bag : PackedBags(compiled.advice)) {
      auto live = live_bags_.find(bag);
      if (live != live_bags_.end()) {
        installed.insert(*live);
      }
    }
    lint_options.propagation = propagation_;
  }
  lint_options.schema = schema_;
  lint_options.assume_projection_pushdown = options.compiler.pushdown;
  lint_options.installed_bags = &installed;
  lint_options.baggage_budget = options.baggage_budget;
  return analysis::QueryLinter(lint_options).Lint(compiled.query_id, compiled.advice,
                                                  compiled.plan);
}

Result<uint64_t> Frontend::InstallCompiled(CompiledQuery compiled, const InstallOptions& options) {
  // Install-time gate (the query-text trust boundary): errors always reject,
  // warnings reject unless forced, infos never block.
  analysis::QueryLintResult lint = LintCompiled(compiled, options);
  if (lint.report.has_errors() || (lint.report.has_warnings() && !options.force)) {
    std::string message = "query rejected by static analysis:\n" + lint.report.ToString();
    if (!lint.report.has_errors()) {
      message += "\n(warnings only: install with force to override)";
    }
    return InvalidArgumentError(std::move(message));
  }

  const uint64_t query_id = compiled.query_id;
  std::vector<uint8_t> weave;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ShareLiveBagsLocked(&compiled);
    weave = EncodeWeave(WeaveCommand{query_id, compiled.advice, compiled.plan});
    QueryResults results(std::move(compiled));
    QueryStatus& status = results.status;
    status.query_id = query_id;
    status.aggregated = results.compiled.plan.aggregated();
    std::set<std::string> tps;
    for (const auto& [tp, adv] : results.compiled.advice) {
      tps.insert(tp);
    }
    status.tracepoints.assign(tps.begin(), tps.end());
    status.installed_micros = NowMicros();
    queries_.emplace(query_id, std::move(results));
  }

  bus_->Publish(BusMessage{kCommandTopic, std::move(weave)});
  return query_id;
}

Status Frontend::Uninstall(uint64_t query_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queries_.find(query_id);
    if (it == queries_.end()) {
      return NotFoundError("unknown query: " + std::to_string(query_id));
    }
    QueryStatus& status = it->second.status;
    if (!status.active) {
      return Status::Ok();  // Already uninstalled: nothing to publish.
    }
    status.active = false;
    status.uninstalled_micros = NowMicros();
    ResultSet& total = it->second.total;
    total.EncodeNamed(&it->second.sealed);
    it->second.sealed.shrink_to_fit();  // Held until the frontend goes: no slack.
    total = total.EmptyLike();
    for (BagKey bag : PackedBags(it->second.compiled.advice)) {
      auto live = live_bags_.find(bag);
      if (live == live_bags_.end()) {
        continue;
      }
      std::erase(live->second.queries, query_id);
      if (live->second.queries.empty()) {
        live_bags_.erase(live);
      }
    }
  }
  bus_->Publish(BusMessage{kCommandTopic, EncodeUnweave(query_id)});
  return Status::Ok();
}

const CompiledQuery* Frontend::compiled(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(query_id);
  return it == queries_.end() ? nullptr : &it->second.compiled;
}

analysis::LiveBags Frontend::live_bags() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_bags_;
}

void Frontend::HandleReport(const BusMessage& msg) {
  if (!msg.payload.empty() &&
      msg.payload[0] == static_cast<uint8_t>(ControlMessageType::kBatch)) {
    HandleBatch(msg.payload);
    return;
  }
  Result<ControlMessage> decoded = DecodeControlMessage(msg.payload);
  if (!decoded.ok()) {
    DecodeErrorsCounter().Increment();
    return;
  }
  if (decoded->type == ControlMessageType::kHello) {
    // A new agent came up: replay the weave commands of every active query so
    // late-starting processes participate in standing queries. Duplicate
    // weaves are ignored by agents that already have them.
    std::vector<std::vector<uint8_t>> replays;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [id, q] : queries_) {
        if (q.status.active) {
          replays.push_back(EncodeWeave(WeaveCommand{id, q.compiled.advice, q.compiled.plan}));
        }
      }
    }
    for (auto& payload : replays) {
      bus_->Publish(BusMessage{kCommandTopic, std::move(payload)});
    }
    return;
  }
  if (decoded->type == ControlMessageType::kWeaveAck) {
    const WeaveAck& ack = decoded->weave_ack;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queries_.find(ack.query_id);
    if (it == queries_.end()) {
      return;
    }
    QueryStatus& q = it->second.status;
    if (q.first_ack_micros < 0) {
      q.first_ack_micros = ack.timestamp_micros;
    }
    q.agents[ack.host + "/" + ack.process_name].ack_micros = ack.timestamp_micros;
  }
}

void Frontend::HandleBatch(const std::vector<uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(mu_);
  // Every report is checked against its query's total before any merges;
  // reports for unknown or uninstalled queries are skipped and counted as
  // dropped. A malformed frame, or a report whose names do not match its
  // plan, is dropped whole.
  uint64_t skipped = 0;
  Result<ControlMessage> decoded =
      DecodeControlMessage(payload, [this, &skipped](uint64_t query_id) -> const ResultSet* {
        auto it = queries_.find(query_id);
        if (it == queries_.end() || !it->second.status.active) {
          ++skipped;
          return nullptr;
        }
        return &it->second.total;
      });
  if (!decoded.ok()) {
    DecodeErrorsCounter().Increment();
    return;
  }
  if (skipped != 0) {
    ReportsDroppedCounter().Increment(skipped);
  }
  ReceivedBatch& batch = decoded->batch;
  const int64_t ts = batch.timestamp_micros;
  const std::string agent = batch.host + "/" + batch.process_name;
  for (ReceivedReport& report : batch.reports) {
    QueryResults& q = queries_.at(report.query_id);
    QueryStatus& status = q.status;
    if (report.rows != 0) {
      if (status.first_tuple_micros < 0) {
        status.first_tuple_micros = ts;
      }
      status.last_report_micros = std::max(status.last_report_micros, ts);
    }
    AgentQueryView& view = status.agents[agent];
    view.last_report_micros = std::max(view.last_report_micros, ts);
    ++view.reports;
    view.tuples += report.rows;

    // The report merges from its bytes straight into the total; it was
    // checked against the total's plan, so the merge cannot fail. The
    // interval keeps the bytes: they become its slices when it is the
    // interval's first report, and are appended otherwise.
    const bool merged = q.total.DecodeSlices(report.wire);
    assert(merged);
    (void)merged;
    std::vector<uint8_t>& interval = q.intervals[ts];
    if (interval.empty()) {
      interval = std::move(report.wire);
    } else {
      interval.insert(interval.end(), report.wire.begin(), report.wire.end());
    }
  }
  for (const AgentStats& stats : batch.heartbeats) {
    auto it = queries_.find(stats.query_id);
    if (it == queries_.end()) {
      continue;
    }
    AgentQueryView& view = it->second.status.agents[agent];
    view.last_heartbeat_micros = ts;
    view.reports_suppressed = stats.reports_suppressed;
  }
}

std::vector<Tuple> Frontend::Results(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return {};
  }
  const QueryResults& q = it->second;
  return q.status.active ? q.total.Finalize() : DecodeSlices(q.total, q.sealed).Finalize();
}

std::map<int64_t, std::vector<Tuple>> Frontend::Series(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return {};
  }
  std::map<int64_t, std::vector<Tuple>> out;
  for (const auto& [ts, slices] : it->second.intervals) {
    out.emplace_hint(out.end(), ts, DecodeSlices(it->second.total, slices).Finalize());
  }
  return out;
}

void Frontend::TrimSeriesBefore(uint64_t query_id, int64_t before_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  auto trim = [before_micros](QueryResults& q) {
    q.intervals.erase(q.intervals.begin(), q.intervals.lower_bound(before_micros));
  };
  if (query_id == 0) {
    for (auto& [id, q] : queries_) {
      trim(q);
    }
    return;
  }
  auto it = queries_.find(query_id);
  if (it != queries_.end()) {
    trim(it->second);
  }
}

uint64_t Frontend::reports_received() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (const auto& [id, q] : queries_) {
    sum += SumOverAgents(q.status.agents, &AgentQueryView::reports);
  }
  return sum;
}

uint64_t Frontend::tuples_received() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (const auto& [id, q] : queries_) {
    sum += SumOverAgents(q.status.agents, &AgentQueryView::tuples);
  }
  return sum;
}

std::vector<Frontend::QueryStatus> Frontend::QueryStatuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryStatus> out;
  out.reserve(queries_.size());
  for (const auto& [id, q] : queries_) {
    QueryStatus& s = out.emplace_back(q.status);
    s.reports = SumOverAgents(s.agents, &AgentQueryView::reports);
    s.tuples = SumOverAgents(s.agents, &AgentQueryView::tuples);
    s.held_bytes = q.sealed.size();
    for (const auto& [ts, slices] : q.intervals) {
      s.held_bytes += slices.size();
    }
    for (BagKey bag : PackedBags(q.compiled.advice)) {
      QueryStatus::PackedBag& packed = s.bags.emplace_back();
      packed.key = bag;
      auto live = live_bags_.find(bag);
      if (s.active && live != live_bags_.end()) {
        for (uint64_t other : live->second.queries) {
          if (other != id) {
            packed.shared_with.push_back(other);
          }
        }
      }
    }
  }
  return out;
}

namespace {

// "quiet" = no data but the agent proved liveness (ack/heartbeat/report);
// "no signal" = the frontend has heard nothing for this query from anybody.
std::string AgentHealth(const AgentQueryView& v) {
  if (v.last_report_micros >= 0 &&
      v.last_report_micros >= v.last_heartbeat_micros) {
    return "reporting";
  }
  if (v.last_heartbeat_micros >= 0) {
    return "quiet (heartbeating)";
  }
  if (v.ack_micros >= 0) {
    return "woven, no data yet";
  }
  return "no signal";
}

void AppendMicros(std::ostringstream* os, const char* label, int64_t micros) {
  *os << label << "=";
  if (micros < 0) {
    *os << "never";
  } else {
    *os << micros;
  }
}

// Host and process names arrive over the bus, so any byte may occur: RFC 8259
// requires every control character (U+0000-U+001F) to be escaped.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte < 0x20) {
      out += StrFormat("\\u%04x", byte);
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string Frontend::StatusReport() const {
  std::vector<QueryStatus> statuses = QueryStatuses();
  std::ostringstream os;
  os << "=== Pivot Tracing status ===\n";
  os << "queries: " << statuses.size() << "  reports: " << reports_received()
     << "  tuples: " << tuples_received()
     << "  symbols: " << SymbolTable::Global().size() << "\n";
  for (const auto& s : statuses) {
    os << "\nquery " << s.query_id << " [" << (s.active ? "active" : "uninstalled") << ", "
       << (s.aggregated ? "aggregated" : "streaming") << "]\n";
    os << "  tracepoints:";
    for (const auto& tp : s.tracepoints) {
      os << " " << tp;
    }
    os << "\n  lifecycle: ";
    AppendMicros(&os, "installed", s.installed_micros);
    os << "  ";
    AppendMicros(&os, "first_ack", s.first_ack_micros);
    os << "  ";
    AppendMicros(&os, "first_tuple", s.first_tuple_micros);
    os << "  ";
    AppendMicros(&os, "last_report", s.last_report_micros);
    if (s.uninstalled_micros >= 0) {
      os << "  ";
      AppendMicros(&os, "uninstalled", s.uninstalled_micros);
    }
    os << "\n  totals: reports=" << s.reports << " tuples=" << s.tuples
       << " held_bytes=" << s.held_bytes << "\n";
    if (!s.bags.empty()) {
      os << "  bags:";
      for (const auto& bag : s.bags) {
        os << " " << bag.key;
        if (!bag.shared_with.empty()) {
          os << " (shared with";
          for (uint64_t other : bag.shared_with) {
            os << " " << other;
          }
          os << ")";
        }
      }
      os << "\n";
    }
    for (const auto& [agent, view] : s.agents) {
      os << "  agent " << agent << ": " << AgentHealth(view) << "  reports=" << view.reports
         << " tuples=" << view.tuples << " suppressed=" << view.reports_suppressed << "  ";
      AppendMicros(&os, "last_report", view.last_report_micros);
      os << " ";
      AppendMicros(&os, "last_heartbeat", view.last_heartbeat_micros);
      os << "\n";
    }
  }
  os << "\n--- bus topics ---\n";
  for (const auto& t : bus_->TopicSnapshot()) {
    os << t.topic << ": published=" << t.published << " delivered=" << t.delivered
       << " bytes=" << t.bytes << " no_subscriber=" << t.no_subscriber
       << " subscribers=" << t.subscribers << "\n";
  }
  os << "\n--- telemetry ---\n" << telemetry::Metrics().RenderText();
  return os.str();
}

std::string Frontend::StatusReportJson() const {
  std::vector<QueryStatus> statuses = QueryStatuses();
  std::ostringstream os;
  os << "{\"queries\":[";
  bool first_q = true;
  for (const auto& s : statuses) {
    if (!first_q) os << ",";
    first_q = false;
    os << "{\"id\":" << s.query_id << ",\"active\":" << (s.active ? "true" : "false")
       << ",\"aggregated\":" << (s.aggregated ? "true" : "false") << ",\"tracepoints\":[";
    for (size_t i = 0; i < s.tracepoints.size(); ++i) {
      if (i > 0) os << ",";
      os << "\"" << JsonEscape(s.tracepoints[i]) << "\"";
    }
    os << "],\"installed_micros\":" << s.installed_micros
       << ",\"first_ack_micros\":" << s.first_ack_micros
       << ",\"first_tuple_micros\":" << s.first_tuple_micros
       << ",\"last_report_micros\":" << s.last_report_micros
       << ",\"uninstalled_micros\":" << s.uninstalled_micros << ",\"reports\":" << s.reports
       << ",\"tuples\":" << s.tuples << ",\"held_bytes\":" << s.held_bytes
       << ",\"bags\":[";
    for (size_t i = 0; i < s.bags.size(); ++i) {
      if (i > 0) os << ",";
      os << "{\"key\":" << s.bags[i].key << ",\"shared_with\":[";
      for (size_t j = 0; j < s.bags[i].shared_with.size(); ++j) {
        if (j > 0) os << ",";
        os << s.bags[i].shared_with[j];
      }
      os << "]}";
    }
    os << "],\"agents\":{";
    bool first_a = true;
    for (const auto& [agent, view] : s.agents) {
      if (!first_a) os << ",";
      first_a = false;
      os << "\"" << JsonEscape(agent) << "\":{\"health\":\"" << JsonEscape(AgentHealth(view))
         << "\",\"ack_micros\":" << view.ack_micros
         << ",\"last_report_micros\":" << view.last_report_micros
         << ",\"last_heartbeat_micros\":" << view.last_heartbeat_micros
         << ",\"reports\":" << view.reports << ",\"tuples\":" << view.tuples
         << ",\"reports_suppressed\":" << view.reports_suppressed << "}";
    }
    os << "}}";
  }
  os << "],\"bus\":[";
  bool first_t = true;
  for (const auto& t : bus_->TopicSnapshot()) {
    if (!first_t) os << ",";
    first_t = false;
    os << "{\"topic\":\"" << JsonEscape(t.topic) << "\",\"published\":" << t.published
       << ",\"delivered\":" << t.delivered << ",\"bytes\":" << t.bytes
       << ",\"no_subscriber\":" << t.no_subscriber << ",\"subscribers\":" << t.subscribers << "}";
  }
  os << "],\"symbols\":" << SymbolTable::Global().size()
     << ",\"telemetry\":" << telemetry::Metrics().RenderJson() << "}";
  return os.str();
}

}  // namespace pivot
