// hdfs_diag: the paper's §6.1 diagnosis session on the simulated Hadoop
// cluster, single-threaded and deterministic.
//
// Fig 8 shape: 8 DataNodes, 96 closed-loop StressTest clients (12 per host)
// doing random 8 kB reads, HDFS-6268 on. Q2 and Q3 stand for the whole
// session (they are what the result check reconciles against); Q4-Q7 rotate,
// one install or uninstall per simulated second. The benchmark plays the
// clients and the operator: it fires StressTest.DoNextOp, steps the
// simulator, flushes every agent once per simulated second, polls Results()
// like a dashboard, and installs/uninstalls the queries. The amount of
// simulated time is fixed by --seconds, so every count is reproducible.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/hadoop/cluster.h"
#include "src/hadoop/tracepoints.h"
#include "src/simsys/sim_rpc.h"

namespace perfbench {
namespace {

using pivot::CtxPtr;
using pivot::kMicrosPerMilli;
using pivot::kMicrosPerSecond;

constexpr uint64_t kClusterSeed = 62680;
constexpr int kWorkerHosts = 8;
constexpr int kClientsPerHost = 12;
constexpr uint64_t kReadBytes = 8 << 10;
constexpr int64_t kThinkMicros = 10 * kMicrosPerMilli;
// Latency slices. At 100 ms, one slice in ten holds the per-second flush and
// rotation op, so the p95 lands inside that group rather than on its edge.
constexpr int64_t kSliceMicros = 100 * kMicrosPerMilli;
constexpr int64_t kSlicesPerSecond = kMicrosPerSecond / kSliceMicros;
constexpr int64_t kWarmupSeconds = 2;
constexpr int kSetups = 9;
// Simulated seconds measured per second of --seconds.
constexpr int64_t kSimSecondsPerRunSecond = 10;
// One rotation cycle: four installs, then four uninstalls (see kRotation).
constexpr int64_t kCycleSeconds = 8;
// Traced run: untraced/traced rotation-cycle pairs.
constexpr int kTracedCycles = 2;

const char kQ2[] =
    "From incr In DataNodeMetrics.incrBytesRead\n"
    "Join cl In First(ClientProtocols) On cl -> incr\n"
    "GroupBy cl.procName\n"
    "Select cl.procName, SUM(incr.delta)";
const char kQ3[] =
    "From dnop In DN.DataTransferProtocol\n"
    "GroupBy dnop.host\n"
    "Select dnop.host, COUNT";
const char* const kRotating[] = {
    // Q4
    "From getloc In NN.GetBlockLocations\n"
    "Join st In StressTest.DoNextOp On st -> getloc\n"
    "GroupBy st.host, getloc.src\n"
    "Select st.host, getloc.src, COUNT",
    // Q5
    "From getloc In NN.GetBlockLocations\n"
    "Join st In StressTest.DoNextOp On st -> getloc\n"
    "GroupBy st.host, getloc.replicas\n"
    "Select st.host, getloc.replicas, COUNT",
    // Q6
    "From DNop In DN.DataTransferProtocol\n"
    "Join st In StressTest.DoNextOp On st -> DNop\n"
    "GroupBy st.host, DNop.host\n"
    "Select st.host, DNop.host, COUNT",
    // Q7
    "From DNop In DN.DataTransferProtocol\n"
    "Join getloc In NN.GetBlockLocations On getloc -> DNop\n"
    "Join st In StressTest.DoNextOp On st -> getloc\n"
    "Where st.host != DNop.host\n"
    "GroupBy DNop.host, getloc.replicas\n"
    "Select DNop.host, getloc.replicas, COUNT",
};
constexpr size_t kRotatingCount = sizeof(kRotating) / sizeof(kRotating[0]);
constexpr size_t kQ4 = 0;
constexpr size_t kQ5 = 1;
constexpr size_t kQ6 = 2;
constexpr size_t kQ7 = 3;

// One rotation cycle, one op per simulated second. Q4's (host, file) groups
// make by far the largest reports, so it stays for 2 of the 8 intervals:
// at 4 of 8, flush_ms_p50 would sit on the edge between Q4 and non-Q4
// intervals and jump between runs.
struct RotationOp {
  bool install;
  size_t query;
};
constexpr RotationOp kRotation[kCycleSeconds] = {
    {true, kQ5},  {true, kQ6},  {true, kQ4},  {true, kQ7},
    {false, kQ4}, {false, kQ5}, {false, kQ6}, {false, kQ7},
};

// Sum of the last column (the aggregate) over result rows.
double SumLastColumn(const std::vector<pivot::Tuple>& rows) {
  double total = 0;
  for (const pivot::Tuple& row : rows) {
    total += row.field(row.size() - 1).value.AsDouble();
  }
  return total;
}

class Session;

// One closed-loop StressTest client: fire DoNextOp, do the application's
// work, read 8 kB of a random file, think 10 ms, repeat.
class StressClient {
 public:
  StressClient(Session* session, pivot::SimProcess* proc, pivot::HdfsNameNode* namenode,
               uint64_t seed);
  void Start();

 private:
  void DoOp();

  Session* session_;
  pivot::SimProcess* proc_;
  pivot::HdfsClient client_;
  pivot::Rng rng_;
  pivot::Tracepoint* do_next_op_;
};

// Q6's installed windows, for the per-interval check against Q3.
struct Window {
  uint64_t query_id = 0;
  int64_t installed_s = 0;
  int64_t uninstalled_s = -1;
};

// One simulated cluster with its clients, queries and schedule.
class Session {
 public:
  Session(const Options& opts, bool queries, int64_t end_seconds, ControlStats* stats,
          Report* report)
      : queries_(queries), end_seconds_(end_seconds), stats_(stats), report_(report) {
    pivot::HadoopClusterConfig config;
    config.worker_hosts = kWorkerHosts;
    config.dataset_files = 1000;
    // The testbed's block placement is part of the system under test, fixed
    // like the Fig 8 bench's; --seed drives the clients' request streams.
    config.seed = kClusterSeed;
    config.deploy_hbase = false;
    config.deploy_mapreduce = false;
    config.hdfs.datanode_op_micros = 800;
    config.hdfs.static_order_hosts = {"A", "D", "B", "C", "E", "F", "G", "H"};
    config.hdfs.namenode_static_replica_order = true;  // HDFS-6268 on.
    config.hdfs.client_selects_first_location = true;
    cluster_ = std::make_unique<pivot::HadoopCluster>(config);
    env_ = cluster_->world()->env();
    for (int h = 0; h < kWorkerHosts; ++h) {
      for (int c = 0; c < kClientsPerHost; ++c) {
        pivot::SimProcess* proc =
            cluster_->AddClient(cluster_->worker(static_cast<size_t>(h)), "StressTest");
        clients_.push_back(std::make_unique<StressClient>(
            this, proc, cluster_->namenode(), InputHash(opts.seed, 1, clients_.size())));
      }
    }
    for (const auto& proc : cluster_->world()->processes()) {
      agents_.push_back(proc->agent());
      registries_.push_back(proc->registry());
    }
    if (queries_) {
      q2_ = TimedInstall(frontend(), kQ2, stats_, report_);
      q3_ = TimedInstall(frontend(), kQ3, stats_, report_);
    }
    env_->ScheduleAt(kSliceMicros, [this] { EndSlice(kSliceMicros); });
    env_->ScheduleAt(kMicrosPerSecond, [this] { OnSecond(1); });
    for (auto& client : clients_) {
      client->Start();
    }
  }

  pivot::Frontend* frontend() { return cluster_->world()->frontend(); }
  pivot::SimEnvironment* env() { return env_; }
  bool stopping() const { return stopping_; }
  void CountCompleted() { ++completed_; }
  uint64_t completed() const { return completed_; }
  void set_stats(ControlStats* stats) { stats_ = stats; }
  Report* report() { return report_; }

  Counters TakeCounters() const {
    pivot::SimWorld* world = cluster_->world();
    return Counters::Take(registries_, agents_, *world->bus(), *world->frontend());
  }

  // Steps the simulator through one slice of simulated time.
  void RunSlice() {
    slice_done_ = false;
    while (!slice_done_) {
      ScopedSpan span(SpanKind::kStep);
      if (!env_->Step()) {
        break;
      }
    }
  }

  // Wall-clock rates of a stretch of simulated time.
  struct Rates {
    std::vector<double> slice_us_per_req;  // Per slice: wall µs per request.
    std::vector<double> second_req_per_s;  // Per simulated second: requests per wall second.
  };

  // Runs `seconds` simulated seconds, appending to `rates` when given.
  void RunSeconds(int64_t seconds, Rates* rates) {
    for (int64_t s = 0; s < seconds; ++s) {
      RotateCpu(0, seconds_run_++);
      uint64_t second_before = completed_;
      int64_t second_start = NowNanos();
      for (int64_t i = 0; i < kSlicesPerSecond; ++i) {
        uint64_t before = completed_;
        int64_t start = NowNanos();
        RunSlice();
        if (rates != nullptr && completed_ > before) {
          rates->slice_us_per_req.push_back(static_cast<double>(NowNanos() - start) / 1e3 /
                                            static_cast<double>(completed_ - before));
        }
      }
      if (rates != nullptr) {
        rates->second_req_per_s.push_back(static_cast<double>(completed_ - second_before) * 1e9 /
                                          static_cast<double>(NowNanos() - second_start));
      }
    }
  }

  // Stops issuing requests, lets in-flight ones finish, and flushes once
  // more so the frontend holds every result.
  void Drain() {
    stopping_ = true;
    env_->RunAll();
    FlushInterval(agents_, (end_seconds_ + 1) * kMicrosPerSecond, stats_);
  }

  // The result check, independent of the frontend: Q3 against the reads the
  // clients completed, Q2 against the bytes they read, Q6 against Q3 in
  // every full interval of each Q6 window.
  void CheckResults() {
    pivot::Frontend* fe = frontend();
    auto completed = static_cast<double>(completed_);
    double q3_total = SumLastColumn(fe->Results(q3_));
    report_->Check(q3_total == completed, "Q3 COUNT " + std::to_string(q3_total) +
                                              " != completed reads " + std::to_string(completed));
    double q2_total = SumLastColumn(fe->Results(q2_));
    report_->Check(q2_total == completed * kReadBytes,
                   "Q2 SUM(delta) " + std::to_string(q2_total) + " != bytes read " +
                       std::to_string(completed * kReadBytes));
    std::map<int64_t, std::vector<pivot::Tuple>> q3_series = fe->Series(q3_);
    for (const Window& window : q6_windows_) {
      std::map<int64_t, std::vector<pivot::Tuple>> q6_series = fe->Series(window.query_id);
      int64_t last = window.uninstalled_s >= 0 ? window.uninstalled_s : end_seconds_ + 1;
      // The first interval after install misses requests that started
      // before the install (their DoNextOp packed nothing), so it is skipped.
      for (int64_t t = window.installed_s + 2; t <= last; ++t) {
        int64_t ts = t * kMicrosPerSecond;
        auto it3 = q3_series.find(ts);
        if (it3 == q3_series.end()) {
          continue;
        }
        auto it6 = q6_series.find(ts);
        double q6 = it6 == q6_series.end() ? 0 : SumLastColumn(it6->second);
        double q3 = SumLastColumn(it3->second);
        report_->Check(q6 == q3, "Q6 interval " + std::to_string(t) + "s: " +
                                     std::to_string(q6) + " != Q3 " + std::to_string(q3));
      }
    }
  }

  uint64_t sink = 0;  // Consumes AppWork results.

 private:
  void EndSlice(int64_t t_micros) {
    slice_done_ = true;
    if (t_micros + kSliceMicros <= end_seconds_ * kMicrosPerSecond) {
      env_->ScheduleAt(t_micros + kSliceMicros,
                       [this, t_micros] { EndSlice(t_micros + kSliceMicros); });
    }
  }

  // Once per simulated second: flush every agent, poll results, rotate.
  void OnSecond(int64_t t) {
    FlushInterval(agents_, t * kMicrosPerSecond, stats_);
    std::vector<uint64_t> active;
    for (uint64_t id : {q2_, q3_}) {
      if (id != 0) {
        active.push_back(id);
      }
    }
    for (uint64_t id : rotating_) {
      if (id != 0) {
        active.push_back(id);
      }
    }
    PollResults(*frontend(), active, stats_);
    if (queries_ && t >= kWarmupSeconds && t < end_seconds_) {
      Rotate(t);
    }
    if (t < end_seconds_) {
      env_->ScheduleAt((t + 1) * kMicrosPerSecond, [this, t] { OnSecond(t + 1); });
    }
  }

  void Rotate(int64_t t) {
    const RotationOp& op = kRotation[(t - kWarmupSeconds) % kCycleSeconds];
    size_t index = op.query;
    if (op.install) {
      rotating_[index] = TimedInstall(frontend(), kRotating[index], stats_, report_);
      if (index == kQ6 && rotating_[index] != 0) {
        q6_windows_.push_back({rotating_[index], t, -1});
      }
      return;
    }
    if (rotating_[index] == 0) {
      return;
    }
    TimedUninstall(frontend(), rotating_[index], report_);
    if (index == kQ6 && !q6_windows_.empty()) {
      q6_windows_.back().uninstalled_s = t;
    }
    rotating_[index] = 0;
  }

  bool queries_;
  int64_t end_seconds_;
  ControlStats* stats_;
  Report* report_;
  std::unique_ptr<pivot::HadoopCluster> cluster_;
  pivot::SimEnvironment* env_ = nullptr;
  std::vector<std::unique_ptr<StressClient>> clients_;
  std::vector<pivot::PTAgent*> agents_;
  std::vector<const pivot::TracepointRegistry*> registries_;
  uint64_t q2_ = 0;
  uint64_t q3_ = 0;
  uint64_t rotating_[kRotatingCount] = {};
  std::vector<Window> q6_windows_;
  bool slice_done_ = false;
  bool stopping_ = false;
  uint64_t completed_ = 0;
  uint64_t seconds_run_ = 0;
};

StressClient::StressClient(Session* session, pivot::SimProcess* proc,
                           pivot::HdfsNameNode* namenode, uint64_t seed)
    : session_(session),
      proc_(proc),
      client_(proc, namenode, seed),
      rng_(seed ^ 0x5EED5EED5EED5EEDULL),
      do_next_op_(pivot::GetOrDefineTracepoint(proc, pivot::StressTestDoNextOpDef())) {}

void StressClient::Start() {
  session_->env()->Schedule(rng_.NextInt(0, 10 * kMicrosPerMilli), [this] { DoOp(); });
}

void StressClient::DoOp() {
  if (session_->stopping()) {
    return;
  }
  CtxPtr ctx = proc_->world()->NewRequest(proc_);
  {
    ScopedSpan span(SpanKind::kInvoke);
    do_next_op_->Invoke(ctx.get(), {{"op", pivot::Value("read")}});
  }
  {
    ScopedSpan span(SpanKind::kAppWork);
    session_->sink ^= AppWork(rng_.NextUint64());
  }
  uint64_t file_id = rng_.NextBelow(client_.namenode()->file_count());
  client_.Read(ctx, file_id, kReadBytes, [this](CtxPtr done, pivot::HdfsClient::ReadResult) {
    session_->CountCompleted();
    if (ThreadRecording()) {
      // Traced run only: time Serialize/Deserialize on the request's final
      // baggage, the same calls every simulated RPC hop makes.
      std::vector<uint8_t> bytes;
      {
        ScopedSpan span(SpanKind::kSerialize);
        bytes = done->baggage().Serialize();
      }
      ScopedSpan span(SpanKind::kDeserialize);
      pivot::Result<pivot::Baggage> decoded = pivot::Baggage::Deserialize(bytes);
      if (!decoded.ok()) {
        session_->report()->Check(false, "baggage decode: " + decoded.status().ToString());
      }
    }
    session_->env()->Schedule(kThinkMicros, [this] { DoOp(); });
  });
}

struct Snapshot {
  Counters counters;
  uint64_t completed = 0;
  uint64_t events = 0;
  uint64_t rpc_calls = 0;
  uint64_t rpc_bytes = 0;
};

Snapshot Take(Session& session) {
  Snapshot s;
  s.counters = session.TakeCounters();
  s.completed = session.completed();
  s.events = session.env()->executed_events();
  s.rpc_calls = pivot::RpcStats::total_calls.load();
  s.rpc_bytes = pivot::RpcStats::total_baggage_bytes.load();
  return s;
}

// Builds the world kSetups times (each: cluster, clients, standing queries,
// warm-up) and returns the last; `setup_s` receives each setup's wall time.
std::unique_ptr<Session> SetUp(const Options& opts, int64_t end_seconds, ControlStats* setup_stats,
                               Report* report, std::vector<double>* setup_s) {
  std::unique_ptr<Session> session;
  for (int i = 0; i < kSetups; ++i) {
    session.reset();
    int64_t start = NowNanos();
    session = std::make_unique<Session>(opts, /*queries=*/true, end_seconds, setup_stats, report);
    session->RunSeconds(kWarmupSeconds, nullptr);
    setup_s->push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }
  return session;
}

void Finish(Session& session, const Snapshot& start, Report* report) {
  session.Drain();
  session.CheckResults();
  Snapshot end = Take(session);
  uint64_t errors = end.counters.decode_errors - start.counters.decode_errors;
  report->Check(errors == 0, std::to_string(errors) + " baggage decode errors");
  report->attempted += session.completed();
}

Report RunE2e(const Options& opts) {
  Report report;
  int64_t measured = kSimSecondsPerRunSecond * opts.seconds;
  int64_t end_seconds = kWarmupSeconds + measured;
  ControlStats setup_stats;
  ControlStats stats;
  std::vector<double> setup_s;
  std::unique_ptr<Session> session = SetUp(opts, end_seconds, &setup_stats, &report, &setup_s);

  session->set_stats(&stats);
  Session::Rates rates;
  Snapshot before = Take(*session);
  double cpu_start = CpuSeconds();
  session->RunSeconds(measured, &rates);
  double cpu_s = CpuSeconds() - cpu_start;
  Snapshot after = Take(*session);
  auto requests = static_cast<double>(after.completed - before.completed);

  report.AddE2e("setup_s", Median(setup_s), "s");
  // The median simulated second, so a burst of outside interference moves
  // throughput less than the run average would.
  report.AddE2e("req_per_s", Median(rates.second_req_per_s), "1/s");
  report.AddE2e("cpu_us_per_req", Ratio(cpu_s * 1e6, requests), "us");
  report.AddE2e("req_latency_p50_us", Quantile(rates.slice_us_per_req, 0.5), "us");
  report.AddE2e("req_latency_p95_us", Quantile(rates.slice_us_per_req, 0.95), "us");
  report.AddE2e("flush_ms_p50", Quantile(stats.flush_ms, 0.5), "ms");
  report.AddE2e("install_ms_p50", MedianOverQueries(stats.install_ms), "ms");
  report.AddE2e("wire_bytes_per_req",
                Ratio(static_cast<double>(after.rpc_bytes - before.rpc_bytes), requests), "B");
  Finish(*session, before, &report);
  report.AddE2e("rss_mb", PeakRssMb(), "MB");
  return report;
}

Report RunTraced(const Options& opts) {
  Report report;
  LayerInputs in;

  // Rotation cycles alternate untraced and traced, so both sides see every
  // query mix, and drift in machine speed lands on both alike.
  int64_t end_seconds = kWarmupSeconds + 2 * kTracedCycles * kCycleSeconds;
  ControlStats setup_stats;
  ControlStats untraced_stats;
  std::vector<double> setup_s;
  std::unique_ptr<Session> session = SetUp(opts, end_seconds, &setup_stats, &report, &setup_s);

  // The same session with no queries installed: simulator + application
  // cost alone.
  {
    ControlStats unused;
    Session base(opts, /*queries=*/false, kWarmupSeconds + kCycleSeconds, &unused, &report);
    base.RunSeconds(kWarmupSeconds, nullptr);
    Session::Rates rates;
    base.RunSeconds(kCycleSeconds, &rates);
    in.app_us_per_req = Ratio(1e6, Median(rates.second_req_per_s));
  }

  Snapshot start = Take(*session);
  Session::Rates untraced;
  Session::Rates traced;
  ClearSpans();
  for (int cycle = 0; cycle < kTracedCycles; ++cycle) {
    session->set_stats(&untraced_stats);
    session->RunSeconds(kCycleSeconds, &untraced);

    session->set_stats(&in.control);
    SetThreadRecording(true);
    Snapshot before = Take(*session);
    session->RunSeconds(kCycleSeconds, &traced);
    Snapshot after = Take(*session);
    SetThreadRecording(false);
    in.delta.Add(after.counters.Minus(before.counters));
    in.requests += static_cast<double>(after.completed - before.completed);
    in.wire_bytes += static_cast<double>(after.rpc_bytes - before.rpc_bytes);
    in.wire_crossings += 2.0 * static_cast<double>(after.rpc_calls - before.rpc_calls);
    in.sim_events += static_cast<double>(after.events - before.events);
  }
  session->set_stats(&untraced_stats);
  in.untraced_req_per_s = Median(untraced.second_req_per_s);
  in.traced_req_per_s = Median(traced.second_req_per_s);
  // Lint and install samples: every install of the run.
  in.control.AddInstalls(setup_stats);
  in.control.AddInstalls(untraced_stats);
  in.spans = ReduceSpans();
  if (!opts.spans_path.empty() && !WriteSpans(opts.spans_path)) {
    report.errors.push_back("could not write spans to " + opts.spans_path);
  }
  Finish(*session, start, &report);
  AddLayerMetrics(in, &report);
  return report;
}

}  // namespace

Report RunHdfsDiag(const Options& opts) { return opts.trace ? RunTraced(opts) : RunE2e(opts); }

}  // namespace perfbench
