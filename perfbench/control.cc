// Control-plane helpers shared by every workload, and the per-layer metric
// set (see workloads.h).

#include <string>

#include "perfbench/workloads.h"
#include "src/telemetry/metrics.h"

namespace perfbench {

namespace {

pivot::telemetry::Histogram& BusCallbackHistogram() {
  static pivot::telemetry::Histogram& h =
      pivot::telemetry::Metrics().GetHistogram("bus.callback_nanos");
  return h;
}

double MedianOf(const std::map<std::string, std::vector<double>>& self_ns,
                const std::string& name) {
  auto it = self_ns.find(name);
  return it == self_ns.end() ? 0 : Median(it->second);
}

}  // namespace

void FlushInterval(const std::vector<pivot::PTAgent*>& agents, int64_t now_micros,
                   ControlStats* stats) {
  ScopedSpan interval(SpanKind::kFlushInterval);
  pivot::telemetry::Histogram& callbacks = BusCallbackHistogram();
  int64_t start = NowNanos();
  for (pivot::PTAgent* agent : agents) {
    uint64_t cb_sum = callbacks.sum();
    uint64_t cb_count = callbacks.count();
    int64_t agent_start = NowNanos();
    {
      ScopedSpan span(SpanKind::kAgentFlush);
      agent->Flush(now_micros);
    }
    int64_t agent_ns = NowNanos() - agent_start;
    uint64_t delivered = callbacks.count() - cb_count;
    if (delivered > 0) {
      auto cb_ns = static_cast<double>(callbacks.sum() - cb_sum);
      stats->agent_flush_ns.push_back(static_cast<double>(agent_ns) - cb_ns);
      stats->callback_ns.push_back(cb_ns / static_cast<double>(delivered));
    }
  }
  stats->flush_ms.push_back(static_cast<double>(NowNanos() - start) / 1e6);
  ++stats->intervals;
}

size_t PollResults(const pivot::Frontend& frontend, const std::vector<uint64_t>& queries,
                   ControlStats* stats) {
  ScopedSpan span(SpanKind::kResults);
  int64_t start = NowNanos();
  size_t rows = 0;
  for (uint64_t id : queries) {
    rows += frontend.Results(id).size();
  }
  stats->results_us.push_back(static_cast<double>(NowNanos() - start) / 1e3);
  return rows;
}

uint64_t TimedInstall(pivot::Frontend* frontend, const std::string& text, ControlStats* stats,
                      Report* report) {
  int64_t lint_start = NowNanos();
  bool lint_ok = false;
  {
    ScopedSpan span(SpanKind::kLint);
    pivot::Result<pivot::analysis::QueryLintResult> lint = frontend->Lint(text);
    lint_ok = lint.ok() && !lint->report.has_errors();
  }
  int64_t install_start = NowNanos();
  pivot::Result<uint64_t> id = pivot::InvalidArgumentError("not installed");
  {
    ScopedSpan span(SpanKind::kInstall);
    id = frontend->Install(text);
  }
  int64_t end = NowNanos();
  std::string why = id.ok() ? std::string("lint errors") : id.status().ToString();
  report->Check(lint_ok && id.ok(), "install rejected: " + why + " for: " + text);
  double lint_ms = static_cast<double>(install_start - lint_start) / 1e6;
  double install_ms = static_cast<double>(end - install_start) / 1e6;
  stats->lint_ms[text].push_back(lint_ms);
  stats->install_ms[text].push_back(install_ms);
  stats->weave_ms[text].push_back(install_ms - lint_ms);
  return id.ok() ? *id : 0;
}

void ControlStats::AddInstalls(const ControlStats& other) {
  auto append = [](std::map<std::string, std::vector<double>>* to,
                   const std::map<std::string, std::vector<double>>& from) {
    for (const auto& [text, samples] : from) {
      std::vector<double>& dst = (*to)[text];
      dst.insert(dst.end(), samples.begin(), samples.end());
    }
  };
  append(&lint_ms, other.lint_ms);
  append(&install_ms, other.install_ms);
  append(&weave_ms, other.weave_ms);
}

double MedianOverQueries(const std::map<std::string, std::vector<double>>& samples) {
  std::vector<double> medians;
  for (const auto& [text, values] : samples) {
    medians.push_back(Median(values));
  }
  return Median(medians);
}

void TimedUninstall(pivot::Frontend* frontend, uint64_t query_id, Report* report) {
  ScopedSpan span(SpanKind::kUninstall);
  pivot::Status status = frontend->Uninstall(query_id);
  report->Check(status.ok(), "uninstall failed: " + status.ToString());
}

Counters Counters::Take(const std::vector<const pivot::TracepointRegistry*>& registries,
                        const std::vector<pivot::PTAgent*>& agents, const pivot::MessageBus& bus,
                        const pivot::Frontend& frontend) {
  Counters c;
  for (const pivot::TracepointRegistry* registry : registries) {
    for (const pivot::TracepointStatsRow& row : registry->StatsSnapshot()) {
      c.woven_fires += row.woven_fires;
      c.advice_nanos += row.advice_nanos;
    }
  }
  for (const pivot::PTAgent* agent : agents) {
    c.emitted += agent->emitted_tuples();
    c.reported += agent->reported_tuples();
    c.contentions += agent->shard_contentions();
  }
  c.group_probes = CounterValue("agg.group_probe_count");
  c.cache_hits = CounterValue("baggage.serialize_cache_hit");
  c.cache_misses = CounterValue("baggage.serialize_cache_miss");
  c.decode_errors = CounterValue("baggage.deserialize.errors");
  for (const pivot::TopicStats& topic : bus.TopicSnapshot()) {
    if (topic.topic == pivot::kReportTopic) {
      c.report_topic_bytes = topic.bytes;
    }
  }
  c.frontend_tuples = frontend.tuples_received();
  c.cpu_s = CpuSeconds();
  c.wall_ns = NowNanos();
  return c;
}

Counters Counters::Minus(const Counters& before) const {
  Counters d;
  d.woven_fires = woven_fires - before.woven_fires;
  d.advice_nanos = advice_nanos - before.advice_nanos;
  d.emitted = emitted - before.emitted;
  d.reported = reported - before.reported;
  d.contentions = contentions - before.contentions;
  d.group_probes = group_probes - before.group_probes;
  d.cache_hits = cache_hits - before.cache_hits;
  d.cache_misses = cache_misses - before.cache_misses;
  d.decode_errors = decode_errors - before.decode_errors;
  d.report_topic_bytes = report_topic_bytes - before.report_topic_bytes;
  d.frontend_tuples = frontend_tuples - before.frontend_tuples;
  d.cpu_s = cpu_s - before.cpu_s;
  d.wall_ns = wall_ns - before.wall_ns;
  return d;
}

void Counters::Add(const Counters& delta) {
  woven_fires += delta.woven_fires;
  advice_nanos += delta.advice_nanos;
  emitted += delta.emitted;
  reported += delta.reported;
  contentions += delta.contentions;
  group_probes += delta.group_probes;
  cache_hits += delta.cache_hits;
  cache_misses += delta.cache_misses;
  decode_errors += delta.decode_errors;
  report_topic_bytes += delta.report_topic_bytes;
  frontend_tuples += delta.frontend_tuples;
  cpu_s += delta.cpu_s;
  wall_ns += delta.wall_ns;
}

void AddLayerMetrics(const LayerInputs& in, Report* report) {
  const Counters& d = in.delta;
  const ControlStats& c = in.control;
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  double intervals = n(c.intervals);

  report->AddLayer("core.advice_ns_per_fire", Ratio(n(d.advice_nanos), n(d.woven_fires)), "ns");
  report->AddLayer("core.invoke_ns_p50", MedianOf(in.spans.self_ns, "core.invoke"), "ns");
  report->AddLayer("core.woven_fires_per_req", Ratio(n(d.woven_fires), in.requests), "count");

  report->AddLayer("baggage.serialize_ns_p50", MedianOf(in.spans.self_ns, "baggage.serialize"),
                   "ns");
  report->AddLayer("baggage.deserialize_ns_p50",
                   MedianOf(in.spans.self_ns, "baggage.deserialize"), "ns");
  report->AddLayer("baggage.fork_join_ns_p50", MedianOf(in.spans.self_ns, "baggage.fork_join"),
                   "ns");
  report->AddLayer("baggage.bytes_per_hop", Ratio(in.wire_bytes, in.wire_crossings), "B");
  report->AddLayer("baggage.serialize_cache_hit_ratio",
                   Ratio(n(d.cache_hits), n(d.cache_hits + d.cache_misses)), "ratio");

  report->AddLayer("agent.emits_per_req", Ratio(n(d.emitted), in.requests), "count");
  report->AddLayer("agent.report_ratio", Ratio(n(d.reported), n(d.emitted)), "ratio");
  report->AddLayer("agent.flush_ns_p50", Median(c.agent_flush_ns), "ns");
  report->AddLayer("agent.shard_contention_per_memit",
                   Ratio(n(d.contentions) * 1e6, n(d.emitted)), "count");
  report->AddLayer("agg.group_probes_per_emit", Ratio(n(d.group_probes), n(d.emitted)), "count");

  report->AddLayer("bus.report_bytes_per_interval", Ratio(n(d.report_topic_bytes), intervals),
                   "B");
  report->AddLayer("bus.callback_ns_p50", Median(c.callback_ns), "ns");

  report->AddLayer("frontend.results_us_p50", Median(c.results_us), "us");
  report->AddLayer("frontend.tuples_per_interval", Ratio(n(d.frontend_tuples), intervals),
                   "count");

  report->AddLayer("query.lint_ms_p50", MedianOverQueries(c.lint_ms), "ms");
  report->AddLayer("install.weave_ms_p50", MedianOverQueries(c.weave_ms), "ms");

  report->AddLayer("simsys.step_ns_p50", MedianOf(in.spans.self_ns, "simsys.step"), "ns");
  report->AddLayer("simsys.events_per_req", Ratio(in.sim_events, in.requests), "count");
  report->AddLayer("simsys.app_us_per_req", in.app_us_per_req, "us");

  report->AddLayer("proc.cpu_util", Ratio(d.cpu_s * 1e9, n(static_cast<uint64_t>(d.wall_ns))),
                   "ratio");
  report->AddLayer("trace_overhead_pct",
                   Ratio(in.untraced_req_per_s - in.traced_req_per_s, in.untraced_req_per_s) * 100,
                   "%");

  for (const char* layer : {"app", "core", "baggage", "agent", "frontend", "query", "simsys"}) {
    auto it = in.spans.layer_self_ns.find(layer);
    double self_ns = it == in.spans.layer_self_ns.end() ? 0 : it->second;
    report->AddLayer(std::string("self.") + layer + "_ns_per_req", Ratio(self_ns, in.requests),
                     "ns");
  }
}

}  // namespace perfbench
