#include "src/agent/agent.h"

#include <thread>
#include <utility>

#include "src/analysis/query_linter.h"
#include "src/common/clock.h"
#include "src/telemetry/metrics.h"

namespace pivot {

namespace {

telemetry::Counter& ReportsCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("agent.reports");
  return c;
}

telemetry::Counter& ReportBytesCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("agent.report_bytes");
  return c;
}

telemetry::Counter& DroppedTuplesCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("agent.tuples_dropped");
  return c;
}

telemetry::Counter& EmittedTuplesCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("agent.tuples_emitted");
  return c;
}

telemetry::Counter& CommandDecodeErrorsCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("agent.command_decode_errors");
  return c;
}

telemetry::Counter& WeavesRefusedCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("agent.weaves_refused");
  return c;
}

telemetry::Histogram& FlushNanosHistogram() {
  static telemetry::Histogram& h = telemetry::Metrics().GetHistogram("agent.flush_nanos");
  return h;
}

telemetry::Counter& ShardContentionCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("agent.emit_shard_contention");
  return c;
}

telemetry::Counter& BatchReportsCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("bus.batch_reports");
  return c;
}

size_t DefaultShardCount() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    hw = 1;
  }
  return hw > 64 ? 64 : hw;
}

}  // namespace

PTAgent::PTAgent(MessageBus* bus, TracepointRegistry* registry, ProcessInfo info,
                 size_t shard_count)
    : bus_(bus), registry_(registry), info_(std::move(info)) {
  if (shard_count == 0) {
    shard_count = DefaultShardCount();
  }
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  subscription_ =
      bus_->Subscribe(kCommandTopic, [this](const BusMessage& msg) { HandleCommand(msg); });
  // Announce ourselves so the frontend replays any already-active queries
  // (processes can start after queries are installed).
  bus_->Publish(BusMessage{kReportTopic, EncodeHello()});
}

PTAgent::~PTAgent() { bus_->Unsubscribe(subscription_); }

void PTAgent::HandleCommand(const BusMessage& msg) {
  Result<ControlMessage> decoded = DecodeControlMessage(msg.payload);
  if (!decoded.ok()) {
    // Malformed commands are counted and dropped; agents must not crash hosts.
    CommandDecodeErrorsCounter().Increment();
    return;
  }
  switch (decoded->type) {
    case ControlMessageType::kWeave: {
      const WeaveCommand& cmd = decoded->weave;
      // A late agent's Hello replays every active weave to every agent: drop
      // a duplicate before linting it (and again below, under the same lock
      // that admits the query).
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (queries_.count(cmd.query_id) != 0) {
          return;
        }
      }
      // Re-verify before anything touches the registry (the weave trust
      // boundary): the bytes came off the wire, and a frontend that linted
      // them is an assumption, not a guarantee. Like an eBPF verifier, the
      // agent refuses to weave programs it cannot prove well-formed. No
      // schema here — tracepoints may be defined later (deferred weaving) —
      // and no dead-column heuristics; only error-severity defects refuse.
      {
        analysis::LintOptions lint_options;
        lint_options.assume_projection_pushdown = false;
        // Reachability against the deployment model, when wired: component
        // resolution falls back to the graph's tracepoint anchors since
        // there is no schema here.
        lint_options.propagation = propagation_;
        analysis::QueryLintResult lint =
            analysis::QueryLinter(lint_options).Lint(cmd.query_id, cmd.advice, cmd.plan);
        if (lint.report.has_errors()) {
          WeavesRefusedCounter().Increment();
          return;
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (queries_.count(cmd.query_id) != 0) {
          return;  // Duplicate weave; ignore (no re-ack either).
        }
        const ResultSet& interval =
            queries_.emplace(cmd.query_id, QueryState(cmd.plan)).first->second.results;
        // Give every shard its own partial-results slot before any advice
        // can fire (the registry weave below). Shard locks nest inside mu_.
        for (auto& shard : shards_) {
          std::lock_guard<std::mutex> shard_lock(shard->mu);
          shard->queries.emplace(cmd.query_id, Slot(interval));
        }
      }
      // Hand the registry the full advice list: tracepoints this process does
      // not define are woven lazily if/when they are defined (deferred
      // weaving), and foreign tracepoints simply never fire here.
      (void)registry_->WeaveQuery(cmd.query_id, cmd.advice);
      WeaveAck ack;
      ack.query_id = cmd.query_id;
      ack.host = info_.host;
      ack.process_name = info_.process_name;
      ack.timestamp_micros = runtime_ != nullptr ? runtime_->NowMicros() : 0;
      bus_->Publish(BusMessage{kReportTopic, EncodeWeaveAck(ack)});
      break;
    }
    case ControlMessageType::kUnweave: {
      registry_->UnweaveQuery(decoded->unweave_query_id);
      std::lock_guard<std::mutex> lock(mu_);
      queries_.erase(decoded->unweave_query_id);
      for (auto& shard : shards_) {
        std::lock_guard<std::mutex> shard_lock(shard->mu);
        shard->queries.erase(decoded->unweave_query_id);
      }
      break;
    }
    case ControlMessageType::kHello:
    case ControlMessageType::kWeaveAck:
    case ControlMessageType::kBatch:
      break;  // Agents ignore other agents' traffic.
  }
}

void PTAgent::EmitTuple(uint64_t query_id, const Tuple& t) {
  Shard& shard = *shards_[ThreadOrdinal() % shards_.size()];
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Another thread shares this shard (or Flush is draining it) — count the
    // collision, then block. Stays ~0 when shards >= emitting threads.
    ShardContentionCounter().Increment();
    shard_contentions_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  auto it = shard.queries.find(query_id);
  if (it == shard.queries.end()) {
    DroppedTuplesCounter().Increment();
    return;  // Query was unwoven concurrently; drop.
  }
  shard.emitted.store(shard.emitted.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  it->second.live.AddInput(t);
}

void PTAgent::Flush(int64_t now_micros) {
  int64_t flush_start = MonotonicNanos();
  ReportBatch batch;
  batch.host = info_.host;
  batch.process_name = info_.process_name;
  batch.timestamp_micros = now_micros;
  // queryId -> suppressed count, for the meta-tracepoint rows below.
  std::vector<std::pair<uint64_t, uint64_t>> flushed_meta;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Drain every shard into the per-query interval sets. Under the shard
    // lock each non-empty live set only trades places with its empty spare;
    // the merge runs after the lock is released, so emitters never wait on
    // it.
    // Absorb combines groups with the combiner of Table 3 ("for Count, the
    // combiner is Sum"), so the merged result is exactly what a single
    // global aggregator would have accumulated — only the association order
    // differs, never the values. An idle slot costs two emptiness checks.
    for (auto& shard : shards_) {
      {
        std::lock_guard<std::mutex> shard_lock(shard->mu);
        for (auto& [query_id, slot] : shard->queries) {
          if (!slot.live.empty()) {
            std::swap(slot.live, slot.spare);
          }
        }
      }
      for (auto& [query_id, slot] : shard->queries) {
        if (!slot.spare.empty()) {  // Weave/unweave keep the maps in sync.
          queries_.at(query_id).results.Absorb(std::move(slot.spare));
        }
      }
      // The emit path counts per shard; the shared counter catches up here.
      const uint64_t emitted = shard->emitted.load(std::memory_order_relaxed);
      if (emitted != shard->emitted_published) {
        EmittedTuplesCounter().Increment(emitted - shard->emitted_published);
        shard->emitted_published = emitted;
      }
    }
    for (auto& [query_id, state] : queries_) {
      if (state.results.empty()) {
        // Quiet interval: publish nothing, but count the suppression and
        // heartbeat periodically so the frontend knows we are alive.
        ++state.reports_suppressed;
        if (++state.suppressed_since_heartbeat >= kFlushesPerSuppressedHeartbeat) {
          state.suppressed_since_heartbeat = 0;
          batch.heartbeats.push_back(AgentStats{query_id, state.reports_suppressed});
        }
        continue;
      }
      AgentReport report{query_id, state.results.EmptyLike()};
      report.results.Absorb(std::move(state.results));  // Adopts the set whole.
      state.suppressed_since_heartbeat = 0;
      reported_total_.fetch_add(report.results.size(), std::memory_order_relaxed);
      flushed_meta.emplace_back(query_id, state.reports_suppressed);
      batch.reports.push_back(std::move(report));
    }
  }
  if (batch.reports.empty() && batch.heartbeats.empty()) {
    FlushNanosHistogram().Observe(static_cast<uint64_t>(MonotonicNanos() - flush_start));
    return;  // Nothing to say: quiet processes stay quiet on the bus.
  }
  // Publish and meta-fire outside the locks: advice woven at PTAgent.Flush
  // calls back into EmitTuple, which takes a shard lock. Tuples it emits land
  // in the *next* interval, so self-observation converges instead of
  // recursing. The whole flush ships as one kBatch frame — one bus publish
  // per interval, however many queries reported.
  std::vector<size_t> report_bytes;
  std::vector<uint8_t> encoded = EncodeReportBatch(batch, &report_bytes);
  ReportsCounter().Increment(batch.reports.size());
  ReportBytesCounter().Increment(encoded.size());
  BatchReportsCounter().Increment();
  bus_->Publish(BusMessage{kReportTopic, std::move(encoded)});
  const Tracepoint* flush_tp = runtime_ != nullptr ? runtime_->meta.agent_flush : nullptr;
  if (flush_tp != nullptr && flush_tp->enabled()) {
    for (size_t i = 0; i < batch.reports.size(); ++i) {
      ExecutionContext ctx(runtime_);
      flush_tp->Invoke(&ctx,
                       {{"queryId", Value(static_cast<int64_t>(flushed_meta[i].first))},
                        {"tuples", Value(static_cast<int64_t>(batch.reports[i].results.size()))},
                        {"bytes", Value(static_cast<int64_t>(report_bytes[i]))},
                        {"suppressed", Value(static_cast<int64_t>(flushed_meta[i].second))}});
    }
  }
  FlushNanosHistogram().Observe(static_cast<uint64_t>(MonotonicNanos() - flush_start));
}

uint64_t PTAgent::emitted_tuples() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->emitted.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t PTAgent::reported_tuples() const {
  return reported_total_.load(std::memory_order_relaxed);
}

uint64_t PTAgent::shard_contentions() const {
  return shard_contentions_.load(std::memory_order_relaxed);
}

}  // namespace pivot
