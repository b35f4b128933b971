// rpc_storm and baggage_chain: real application threads in one process.
//
// Each simulated process is a ProcessRuntime with its own TracepointRegistry
// and PTAgent; all share one MessageBus and one Frontend. Application threads
// run closed loops of requests; the main thread is the wall-clock flusher
// (every agent once per 50 ms interval, then one dashboard poll of
// Results()). Requests are numbered; request i's inputs are a hash of
// (--seed, i), so the inputs, the per-key counts and every count metric
// depend on the seed only, never on thread scheduling. The number of
// requests is fixed by --seconds.
//
// rpc_storm: two-hop requests (client -> server -> client) under three
// queries: a GroupBy over ~64k Zipf-skewed keys, a First(Client.Op) join that
// carries one tuple of baggage, and a 1% Sample streaming query.
//
// baggage_chain: requests cross 8 process hops with a 3-way Fork/Join at the
// middle hop, carrying ~1 kB of baggage (60 tuples) that no hop touches; one
// MostRecentN join packs at hop 0 and unpacks at hop 7.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using pivot::Baggage;
using pivot::ExecutionContext;

constexpr int kSetups = 9;
constexpr int64_t kFlushIntervalNanos = 50'000'000;
constexpr uint64_t kTicketBlock = 64;
constexpr uint16_t kTraceEvery = 8;  // Traced run: one request in 8 records spans.
constexpr int kTraceBlocks = 4;      // Traced run: untraced/traced block pairs.
constexpr size_t kLatencySamples = 1 << 18;

// rpc_storm.
constexpr size_t kStormKeys = 65536;
constexpr double kZipfExponent = 0.99;
constexpr const char* kStormOps[] = {"get", "put", "del"};
constexpr size_t kStormOpCount = 3;
const char kStormKeyQuery[] = "From s In Server.Op GroupBy s.key Select s.key, COUNT";
const char kStormJoinQuery[] =
    "From s In Server.Op Join c In First(Client.Op) On c -> s GroupBy c.op Select c.op, COUNT";
const char kStormSampleQuery[] = "From s In Sample(1, Server.Op) Select s.key";

// baggage_chain.
constexpr int kHops = 8;
constexpr int kMiddleHop = kHops / 2;
constexpr size_t kChainKeys = 256;
constexpr int kFillerTuples = 60;
constexpr pivot::BagKey kFillerBag = pivot::kBagKeysPerQuery * 1'000'000;  // Owned by no query.
const char kChainQuery[] =
    "From e In Hop7.Handle Join s In MostRecentN(4, Hop0.Handle) On s -> e "
    "GroupBy s.key Select s.key, COUNT";

struct Shape {
  // Requests measured per second of --seconds, and per warm-up.
  uint64_t requests_per_second;
  uint64_t warmup_requests;
};

Shape ShapeOf(ThreadedShape shape) {
  return shape == ThreadedShape::kRpcStorm ? Shape{200'000, 20'000} : Shape{6'500, 1'500};
}

int AppThreads(ThreadedShape shape) {
  // baggage_chain runs one closed loop: with more, every thread's
  // Deserialize queues on the process-wide symbol-intern mutex, and the
  // convoy swung p50 latency by a quarter between identical runs.
  if (shape == ThreadedShape::kBaggageChain) {
    return 1;
  }
  // Two closed loops and the flusher leave one CPU spare. On a shared host
  // whose hypervisor takes 4-15% of each CPU, a third loop made req_per_s
  // spread twice as wide between identical runs.
  return std::thread::hardware_concurrency() >= 4 ? 2 : 1;
}

// One PT-enabled process.
struct Proc {
  pivot::ProcessRuntime runtime;
  pivot::TracepointRegistry registry;
  std::unique_ptr<pivot::PTAgent> agent;
  pivot::Tracepoint* tp = nullptr;
};

// What one application thread did in one phase.
struct ThreadTally {
  std::vector<uint64_t> key_counts;
  uint64_t op_counts[kStormOpCount] = {};
  std::vector<double> latency_us;
  uint64_t requests = 0;
  uint64_t wire_bytes = 0;
  uint64_t crossings = 0;
  uint64_t decode_errors = 0;
  uint64_t sink = 0;  // Consumes AppWork results.
};

// The processes, the bus and the frontend of one threaded deployment.
class World {
 public:
  World(ThreadedShape shape, uint64_t seed) : shape_(shape), seed_(seed) {
    frontend_ = std::make_unique<pivot::Frontend>(&bus_, &schema_);
    if (shape_ == ThreadedShape::kRpcStorm) {
      AddProc("client-host", "Client", "Client.Op", {"op", "key"});
      AddProc("server-host", "Server", "Server.Op", {"key"});
      keys_.reserve(kStormKeys);
      for (size_t i = 0; i < kStormKeys; ++i) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "k%05zu", i);
        keys_.emplace_back(buf);
      }
      // Zipf CDF over key ranks.
      zipf_cdf_.resize(kStormKeys);
      double total = 0;
      for (size_t i = 0; i < kStormKeys; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
        zipf_cdf_[i] = total;
      }
      for (double& c : zipf_cdf_) {
        c /= total;
      }
    } else {
      for (int h = 0; h < kHops; ++h) {
        std::vector<std::string> exports;
        if (h == 0) {
          exports.push_back("key");
        }
        AddProc("hop-host-" + std::to_string(h), "Hop" + std::to_string(h),
                "Hop" + std::to_string(h) + ".Handle", exports);
      }
      for (size_t i = 0; i < kChainKeys; ++i) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "c%03zu", i);
        keys_.emplace_back(buf);
      }
      // The baggage a request arrives with from upstream: 60 tuples no query
      // owns, ~1 kB on the wire (Table 5's largest row).
      Baggage upstream;
      for (int i = 0; i < kFillerTuples; ++i) {
        upstream.Pack(kFillerBag, pivot::BagSpec::All(),
                      pivot::Tuple{{"u.seq", pivot::Value(i)},
                                   {"u.t", pivot::Value(std::string(1, 'a' + i % 26))}});
      }
      upstream_bytes_ = upstream.Serialize();
    }
    for (size_t i = 0; i < keys_.size(); ++i) {
      key_index_.emplace(keys_[i], i);
    }
    sym_op_ = pivot::InternSymbol("op");
    sym_key_ = pivot::InternSymbol("key");
  }

  ThreadedShape shape() const { return shape_; }
  pivot::Frontend* frontend() { return frontend_.get(); }
  const std::vector<pivot::PTAgent*>& agents() const { return agents_; }
  const std::vector<std::string>& keys() const { return keys_; }
  const std::unordered_map<std::string, size_t>& key_index() const { return key_index_; }

  std::vector<std::string> QueryTexts() const {
    if (shape_ == ThreadedShape::kRpcStorm) {
      return {kStormKeyQuery, kStormJoinQuery, kStormSampleQuery};
    }
    return {kChainQuery};
  }

  Counters TakeCounters() const {
    return Counters::Take(registries_, agents_, bus_, *frontend_);
  }

  // Runs request `ticket` on the calling thread.
  void RunRequest(uint64_t ticket, ThreadTally* tally) const {
    if (shape_ == ThreadedShape::kRpcStorm) {
      RpcStormRequest(ticket, tally);
    } else {
      ChainRequest(ticket, tally);
    }
  }

 private:
  void AddProc(const std::string& host, const std::string& name, const std::string& tracepoint,
               std::vector<std::string> exports) {
    pivot::TracepointDef def;
    def.name = tracepoint;
    def.exports = std::move(exports);
    auto proc = std::make_unique<Proc>();
    proc->runtime.info = {host, name, static_cast<int64_t>(1000 + procs_.size())};
    (void)schema_.Define(def);
    proc->tp = *proc->registry.Define(def);
    proc->agent = std::make_unique<pivot::PTAgent>(&bus_, &proc->registry, proc->runtime.info);
    proc->agent->set_runtime(&proc->runtime);
    proc->runtime.sink = proc->agent.get();
    agents_.push_back(proc->agent.get());
    registries_.push_back(&proc->registry);
    procs_.push_back(std::move(proc));
  }

  static std::vector<uint8_t> Send(const ExecutionContext& from, ThreadTally* tally) {
    ScopedSpan span(SpanKind::kSerialize);
    std::vector<uint8_t> bytes = from.baggage().Serialize();
    tally->wire_bytes += bytes.size();
    ++tally->crossings;
    return bytes;
  }

  static void Receive(const std::vector<uint8_t>& bytes, ExecutionContext* to,
                      ThreadTally* tally) {
    ScopedSpan span(SpanKind::kDeserialize);
    pivot::Result<Baggage> decoded = Baggage::Deserialize(bytes);
    if (decoded.ok()) {
      to->set_baggage(std::move(decoded).value());
    } else {
      ++tally->decode_errors;
    }
  }

  static void Work(uint64_t input, ThreadTally* tally) {
    ScopedSpan span(SpanKind::kAppWork);
    tally->sink ^= AppWork(input);
  }

  void RpcStormRequest(uint64_t ticket, ThreadTally* tally) const {
    uint64_t h = InputHash(seed_, 3, ticket);
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    auto key = static_cast<size_t>(std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
                                   zipf_cdf_.begin());
    key = std::min(key, kStormKeys - 1);
    size_t op = (h & 0xFF) % kStormOpCount;
    Proc& client = *procs_[0];
    Proc& server = *procs_[1];

    ScopedSpan root(SpanKind::kRequest, ticket);
    ExecutionContext client_ctx(&client.runtime);
    {
      ScopedSpan span(SpanKind::kInvoke);
      client.tp->Invoke(&client_ctx, {{sym_op_, pivot::Value(kStormOps[op])},
                                      {sym_key_, pivot::Value(keys_[key])}});
    }
    Work(h, tally);
    std::vector<uint8_t> request = Send(client_ctx, tally);

    ExecutionContext server_ctx(&server.runtime);
    Receive(request, &server_ctx, tally);
    {
      ScopedSpan span(SpanKind::kInvoke);
      server.tp->Invoke(&server_ctx, {{sym_key_, pivot::Value(keys_[key])}});
    }
    Work(h + 1, tally);
    std::vector<uint8_t> response = Send(server_ctx, tally);
    Receive(response, &client_ctx, tally);

    ++tally->key_counts[key];
    ++tally->op_counts[op];
  }

  void ChainRequest(uint64_t ticket, ThreadTally* tally) const {
    uint64_t h = InputHash(seed_, 4, ticket);
    size_t key = h % kChainKeys;

    ScopedSpan root(SpanKind::kRequest, ticket);
    ExecutionContext ctx(&procs_[0]->runtime);
    Receive(upstream_bytes_, &ctx, tally);
    tally->wire_bytes += upstream_bytes_.size();
    ++tally->crossings;
    for (int hop = 0; hop < kHops; ++hop) {
      Proc& proc = *procs_[static_cast<size_t>(hop)];
      if (hop > 0) {
        std::vector<uint8_t> bytes = Send(ctx, tally);
        ExecutionContext next(&proc.runtime);
        Receive(bytes, &next, tally);
        ctx = std::move(next);
      }
      {
        ScopedSpan span(SpanKind::kInvoke);
        if (hop == 0) {
          proc.tp->Invoke(&ctx, {{sym_key_, pivot::Value(keys_[key])}});
        } else {
          proc.tp->Invoke(&ctx, {});
        }
      }
      if (hop != kMiddleHop) {
        Work(h + static_cast<uint64_t>(hop), tally);
        continue;
      }
      // Fan out three ways and rejoin; the branches' work nests inside the
      // fork/join span, so its self time is Fork + Join alone.
      ScopedSpan span(SpanKind::kForkJoin);
      ExecutionContext left = ctx.Fork();
      ExecutionContext right = ctx.Fork();
      Work(h + 100, tally);
      Work(h + 101, tally);
      Work(h + 102, tally);
      ctx.Join(std::move(left));
      ctx.Join(std::move(right));
    }
    ++tally->key_counts[key];
  }

  ThreadedShape shape_;
  uint64_t seed_;
  // Declaration order is destruction order in reverse: agents unsubscribe
  // from the bus, so the bus outlives them.
  pivot::MessageBus bus_;
  pivot::TracepointRegistry schema_;
  std::unique_ptr<pivot::Frontend> frontend_;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<pivot::PTAgent*> agents_;
  std::vector<const pivot::TracepointRegistry*> registries_;
  std::vector<std::string> keys_;
  std::unordered_map<std::string, size_t> key_index_;
  std::vector<double> zipf_cdf_;
  std::vector<uint8_t> upstream_bytes_;
  pivot::SymbolId sym_op_ = pivot::kInvalidSymbol;
  pivot::SymbolId sym_key_ = pivot::kInvalidSymbol;
};

// Totals of one phase of requests.
struct Phase {
  uint64_t requests = 0;
  double wall_s = 0;
  uint64_t wire_bytes = 0;
  uint64_t crossings = 0;
  std::vector<double> latency_us;
  // Completed requests per second in each flush interval.
  std::vector<double> window_req_per_s;

  // Throughput as the median interval rate, so a burst of interference from
  // outside the process moves it less than the phase average; phases too
  // short for an interval fall back to the average.
  double ReqPerS() const {
    std::vector<double> rates;
    AppendRates(&rates);
    return Median(rates);
  }

  // Appends the interval rates (or the phase average) to `rates`.
  void AppendRates(std::vector<double>* rates) const {
    if (window_req_per_s.empty()) {
      rates->push_back(Ratio(static_cast<double>(requests), wall_s));
    } else {
      rates->insert(rates->end(), window_req_per_s.begin(), window_req_per_s.end());
    }
  }
};

// Drives application threads and the flusher over one World, and keeps the
// per-key counts it generated for the result check.
class Harness {
 public:
  Harness(World* world, const std::vector<uint64_t>& queries)
      : world_(world), queries_(queries), key_counts_(world->keys().size(), 0) {}

  // Runs requests [next, next + count) on the application threads while
  // this thread flushes every 50 ms. `traced` records spans for one request
  // in kTraceEvery and for every flush.
  Phase Run(uint64_t count, bool traced, ControlStats* stats) {
    const int threads = AppThreads(world_->shape());
    const uint64_t first = next_ticket_;
    const uint64_t last = first + count;
    const uint64_t stride = std::max<uint64_t>(1, count / kLatencySamples);
    std::atomic<uint64_t> cursor{first};
    std::vector<ThreadTally> tallies(static_cast<size_t>(threads));
    // Requests each thread has completed, read by the flusher for the
    // per-interval throughput; one cache line per thread.
    struct alignas(64) Progress {
      std::atomic<uint64_t> done{0};
    };
    std::vector<Progress> progress(static_cast<size_t>(threads));
    std::atomic<uint64_t> interval{0};  // Bumped by the flusher; threads rotate CPUs on it.
    std::mutex mu;
    std::condition_variable cv;
    int finished = 0;      // Guarded by mu.
    int64_t end_ns = 0;    // Guarded by mu.
    int64_t start_ns = NowNanos();

    std::vector<std::thread> workers;
    for (int i = 0; i < threads; ++i) {
      workers.emplace_back([&, i] {
        ThreadTally& tally = tallies[static_cast<size_t>(i)];
        tally.key_counts.assign(world_->keys().size(), 0);
        bool recording = false;
        uint64_t cpu_epoch = ~uint64_t{0};
        for (;;) {
          uint64_t base = cursor.fetch_add(kTicketBlock, std::memory_order_relaxed);
          if (base >= last) {
            break;
          }
          if (uint64_t e = interval.load(std::memory_order_relaxed); e != cpu_epoch) {
            RotateCpu(i + 1, e);
            cpu_epoch = e;
          }
          for (uint64_t t = base; t < std::min(base + kTicketBlock, last); ++t) {
            bool want = traced && t % kTraceEvery == 0;
            if (want != recording) {
              SetThreadRecording(want, kTraceEvery);
              recording = want;
            }
            int64_t t0 = NowNanos();
            world_->RunRequest(t, &tally);
            int64_t t1 = NowNanos();
            if (t % stride == 0) {
              tally.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
            }
            ++tally.requests;
            progress[static_cast<size_t>(i)].done.store(tally.requests, std::memory_order_relaxed);
          }
        }
        if (recording) {
          SetThreadRecording(false);
        }
        std::lock_guard<std::mutex> lock(mu);
        if (++finished == threads) {
          end_ns = NowNanos();
        }
        cv.notify_all();
      });
    }

    SetThreadRecording(traced);
    RotateCpu(0, 0);
    Phase phase;
    int64_t next = start_ns + kFlushIntervalNanos;
    int64_t window_start = start_ns;
    uint64_t window_done = 0;
    {
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        auto deadline = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(next));
        if (cv.wait_until(lock, deadline, [&] { return finished == threads; })) {
          break;
        }
        lock.unlock();
        uint64_t done = 0;
        for (const Progress& p : progress) {
          done += p.done.load(std::memory_order_relaxed);
        }
        int64_t now = NowNanos();
        phase.window_req_per_s.push_back(static_cast<double>(done - window_done) * 1e9 /
                                         static_cast<double>(now - window_start));
        window_start = now;
        window_done = done;
        uint64_t e = interval.fetch_add(1, std::memory_order_relaxed) + 1;
        RotateCpu(0, e);
        FlushAndPoll(stats);
        ProbeInstalls(stats);
        lock.lock();
        next = std::max(next + kFlushIntervalNanos, NowNanos());
      }
    }
    SetThreadRecording(false);
    for (std::thread& worker : workers) {
      worker.join();
    }
    next_ticket_ = last;

    phase.wall_s = static_cast<double>(end_ns - start_ns) / 1e9;
    for (ThreadTally& tally : tallies) {
      phase.requests += tally.requests;
      phase.wire_bytes += tally.wire_bytes;
      phase.crossings += tally.crossings;
      decode_errors_ += tally.decode_errors;
      for (size_t k = 0; k < key_counts_.size(); ++k) {
        key_counts_[k] += tally.key_counts[k];
      }
      for (size_t o = 0; o < kStormOpCount; ++o) {
        op_counts_[o] += tally.op_counts[o];
      }
      phase.latency_us.insert(phase.latency_us.end(), tally.latency_us.begin(),
                              tally.latency_us.end());
    }
    return phase;
  }

  // From now on, each interval also installs and uninstalls every query text
  // once on `twin`: an idle copy of the deployment (same processes, same
  // schema, no traffic). Installs are timed under the run's own machine
  // conditions without adding advice to the measured deployment, whose
  // counts must stay reproducible. A rejected install fails `report`.
  void set_install_probe(World* twin, Report* report) {
    twin_ = twin;
    report_ = report;
  }

  // One reporting interval: flush every agent, poll every query, and drop
  // the per-interval series a dashboard has already shown.
  void FlushAndPoll(ControlStats* stats) {
    int64_t now_us = NowNanos() / 1000;
    FlushInterval(world_->agents(), now_us, stats);
    PollResults(*world_->frontend(), queries_, stats);
    world_->frontend()->TrimSeriesBefore(0, now_us + 1);
  }

  void ProbeInstalls(ControlStats* stats) {
    if (twin_ == nullptr) {
      return;
    }
    // Not recorded: the twin's work is no part of any request.
    bool recording = ThreadRecording();
    SetThreadRecording(false);
    for (const std::string& text : twin_->QueryTexts()) {
      uint64_t id = TimedInstall(twin_->frontend(), text, stats, report_);
      if (id != 0) {
        TimedUninstall(twin_->frontend(), id, report_);
      }
    }
    SetThreadRecording(recording);
  }

  // The result check, after a final flush: the per-key (and, for
  // rpc_storm, per-op) COUNTs the frontend holds must equal what the
  // benchmark generated; sampled rows must name generated keys.
  void CheckResults(Report* report) {
    ControlStats unused;
    FlushAndPoll(&unused);
    report->Check(decode_errors_ == 0, std::to_string(decode_errors_) + " baggage decode errors");
    const auto& index = world_->key_index();
    auto check_counts = [&](uint64_t query, const char* column, const std::vector<uint64_t>& want,
                            const std::unordered_map<std::string, size_t>& names) {
      std::vector<uint64_t> got(want.size(), 0);
      size_t unknown = 0;
      for (const pivot::Tuple& row : world_->frontend()->Results(query)) {
        auto it = names.find(row.Get(column).ToString());
        if (it == names.end()) {
          ++unknown;
          continue;
        }
        got[it->second] += static_cast<uint64_t>(row.Get("COUNT").AsDouble());
      }
      size_t mismatched = unknown;
      for (size_t i = 0; i < want.size(); ++i) {
        mismatched += got[i] != want[i] ? 1 : 0;
      }
      report->Check(mismatched == 0, std::string("query ") + std::to_string(query) + ": " +
                                         std::to_string(mismatched) + " groups differ from the " +
                                         "generated counts");
    };
    check_counts(queries_[0], "s.key", key_counts_, index);
    if (world_->shape() == ThreadedShape::kRpcStorm) {
      std::unordered_map<std::string, size_t> ops;
      for (size_t o = 0; o < kStormOpCount; ++o) {
        ops.emplace(kStormOps[o], o);
      }
      check_counts(queries_[1], "c.op", op_counts_, ops);
      size_t bad_rows = 0;
      std::vector<pivot::Tuple> sampled = world_->frontend()->Results(queries_[2]);
      for (const pivot::Tuple& row : sampled) {
        auto it = index.find(row.Get("s.key").ToString());
        bad_rows += it == index.end() || key_counts_[it->second] == 0 ? 1 : 0;
      }
      report->Check(bad_rows == 0 && !sampled.empty() && sampled.size() < next_ticket_,
                    "sample query: " + std::to_string(sampled.size()) + " rows, " +
                        std::to_string(bad_rows) + " naming keys never generated");
    }
    report->attempted += next_ticket_;
  }

 private:
  World* world_;
  std::vector<uint64_t> queries_;
  uint64_t next_ticket_ = 0;
  std::vector<uint64_t> key_counts_;
  std::vector<uint64_t> op_counts_ = std::vector<uint64_t>(kStormOpCount, 0);
  uint64_t decode_errors_ = 0;
  World* twin_ = nullptr;
  Report* report_ = nullptr;
};

// A world with its queries installed and warmed up.
struct Deployment {
  std::unique_ptr<World> world;
  std::unique_ptr<Harness> harness;
};

Deployment SetUpOnce(ThreadedShape shape, const Options& opts, bool queries, Report* report) {
  Deployment d;
  d.world = std::make_unique<World>(shape, opts.seed);
  ControlStats setup_stats;
  std::vector<uint64_t> ids;
  if (queries) {
    for (const std::string& text : d.world->QueryTexts()) {
      ids.push_back(TimedInstall(d.world->frontend(), text, &setup_stats, report));
    }
  }
  d.harness = std::make_unique<Harness>(d.world.get(), ids);
  d.harness->Run(ShapeOf(shape).warmup_requests, /*traced=*/false, &setup_stats);
  return d;
}

// Sets up kSetups times; keeps the last deployment.
Deployment SetUp(ThreadedShape shape, const Options& opts, Report* report,
                 std::vector<double>* setup_s) {
  Deployment d;
  for (int i = 0; i < kSetups; ++i) {
    d = Deployment{};
    int64_t start = NowNanos();
    d = SetUpOnce(shape, opts, /*queries=*/true, report);
    setup_s->push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }
  return d;
}

Report RunE2e(ThreadedShape shape, const Options& opts) {
  Report report;
  World twin(shape, opts.seed);
  std::vector<double> setup_s;
  Deployment d = SetUp(shape, opts, &report, &setup_s);
  d.harness->set_install_probe(&twin, &report);
  ControlStats stats;
  double cpu_start = CpuSeconds();
  Phase phase = d.harness->Run(ShapeOf(shape).requests_per_second *
                                  static_cast<uint64_t>(opts.seconds),
                              /*traced=*/false, &stats);
  double cpu_s = CpuSeconds() - cpu_start;
  d.harness->CheckResults(&report);

  auto requests = static_cast<double>(phase.requests);
  report.AddE2e("setup_s", Median(setup_s), "s");
  report.AddE2e("req_per_s", phase.ReqPerS(), "1/s");
  report.AddE2e("cpu_us_per_req", Ratio(cpu_s * 1e6, requests), "us");
  report.AddE2e("req_latency_p50_us", Quantile(phase.latency_us, 0.5), "us");
  report.AddE2e("req_latency_p95_us", Quantile(phase.latency_us, 0.95), "us");
  report.AddE2e("flush_ms_p50", Quantile(stats.flush_ms, 0.5), "ms");
  report.AddE2e("install_ms_p50", MedianOverQueries(stats.install_ms), "ms");
  report.AddE2e("wire_bytes_per_req", Ratio(static_cast<double>(phase.wire_bytes), requests), "B");
  report.AddE2e("rss_mb", PeakRssMb(), "MB");
  return report;
}

Report RunTraced(ThreadedShape shape, const Options& opts) {
  Report report;
  LayerInputs in;
  uint64_t total = ShapeOf(shape).requests_per_second * static_cast<uint64_t>(opts.seconds);

  World twin(shape, opts.seed);
  std::vector<double> setup_s;
  Deployment d = SetUp(shape, opts, &report, &setup_s);
  d.harness->set_install_probe(&twin, &report);

  // Application cost alone: the same deployment with no queries installed.
  {
    Deployment base = SetUpOnce(shape, opts, /*queries=*/false, &report);
    ControlStats unused;
    Phase phase = base.harness->Run(total / 8, /*traced=*/false, &unused);
    // Thread-µs per request: each application thread is one closed loop.
    in.app_us_per_req = Ratio(1e6 * AppThreads(shape), phase.ReqPerS());
  }

  // Untraced and traced blocks alternate, so drift in machine speed over
  // the run lands on both sides of trace_overhead_pct alike.
  ControlStats untraced_stats;
  std::vector<double> untraced_rates;
  std::vector<double> traced_rates;
  ClearSpans();
  for (int block = 0; block < kTraceBlocks; ++block) {
    d.harness->Run(total / (4 * kTraceBlocks), /*traced=*/false, &untraced_stats)
        .AppendRates(&untraced_rates);
    Counters before = d.world->TakeCounters();
    Phase traced = d.harness->Run(total / (4 * kTraceBlocks), /*traced=*/true, &in.control);
    in.delta.Add(d.world->TakeCounters().Minus(before));
    traced.AppendRates(&traced_rates);
    in.requests += static_cast<double>(traced.requests);
    in.wire_bytes += static_cast<double>(traced.wire_bytes);
    in.wire_crossings += static_cast<double>(traced.crossings);
  }
  in.spans = ReduceSpans();
  in.untraced_req_per_s = Median(untraced_rates);
  in.traced_req_per_s = Median(traced_rates);

  if (!opts.spans_path.empty() && !WriteSpans(opts.spans_path)) {
    report.errors.push_back("could not write spans to " + opts.spans_path);
  }
  d.harness->CheckResults(&report);
  AddLayerMetrics(in, &report);
  return report;
}

}  // namespace

Report RunThreaded(const Options& opts, ThreadedShape shape) {
  return opts.trace ? RunTraced(shape, opts) : RunE2e(shape, opts);
}

}  // namespace perfbench
