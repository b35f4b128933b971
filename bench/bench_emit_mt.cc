// Multi-threaded emission-path benchmark (docs/PERFORMANCE.md, "Emission
// path"): PTAgent::EmitTuple intake cost, sharded vs global-lock.
//
//   1. Single-thread ns/tuple: an 8-shard agent vs a 1-shard agent (the
//      1-shard configuration is the old global-lock path: one mutex, one
//      aggregator). Sharding must not tax the sequential caller — gated at
//      kMaxStRatio (sharded/baseline, 1.25x).
//   2. 1→8-thread scaling: aggregate tuples/s through both configurations.
//      On multi-core hardware the sharded intake must reach
//      kMinMtSpeedup (3x) over the global lock at 8 threads.
//      On boxes with < 4 hardware threads the contention being measured
//      physically cannot materialize (one core interleaves the "contending"
//      threads), so the MT gate self-skips with a SKIP line; CI's multi-core
//      runners enforce it.
//
// Hand-rolled timing (medians of interleaved passes single-threaded, of
// interleaved pairs for scaling): no benchmark library, so the gate runs
// identically everywhere check.sh does.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/agent/agent.h"
#include "src/bus/message_bus.h"
#include "src/common/clock.h"

namespace pivot {
namespace {

constexpr uint64_t kQuery = 1;
// The gates: sharded single-thread cost at most kMaxStRatio times the global
// lock's, and sharded 8-thread throughput at least kMinMtSpeedup times it.
constexpr double kMaxStRatio = 1.25;
constexpr double kMinMtSpeedup = 3.0;

// ns per call of `fn` over one pass of `iters` calls.
double PassNs(const std::function<void()>& fn, int iters) {
  const int64_t start = MonotonicNanos();
  for (int i = 0; i < iters; ++i) {
    fn();
  }
  return static_cast<double>(MonotonicNanos() - start) / iters;
}

// A woven grouped-COUNT query (8 groups), the common aggregated-intake shape.
WeaveCommand Command() {
  WeaveCommand cmd;
  cmd.query_id = kQuery;
  cmd.advice.emplace_back("X",
                          AdviceBuilder().Observe({{"v", "x.v"}}).Emit(kQuery, {}).Build());
  cmd.plan.group_fields = {"x.v"};
  cmd.plan.aggs = {{AggFn::kCount, "", "COUNT", false}};
  return cmd;
}

// One agent + bus + registry, woven and ready to take emissions.
struct Harness {
  MessageBus bus;
  TracepointRegistry registry;
  std::unique_ptr<PTAgent> agent;

  explicit Harness(size_t shards) {
    agent = std::make_unique<PTAgent>(&bus, &registry, ProcessInfo{"bench", "proc", 1}, shards);
    bus.Publish(BusMessage{kCommandTopic, EncodeWeave(Command())});
  }
};

std::vector<Tuple> MakeRows() {
  std::vector<Tuple> rows;
  for (int64_t v = 0; v < 8; ++v) {
    rows.push_back(Tuple{{"x.v", Value(v)}});
  }
  return rows;
}

// Aggregate throughput (tuples/s) of `threads` emitters in one pass.
double MeasureThroughput(PTAgent* agent, int threads, int per_thread) {
  const std::vector<Tuple> rows = MakeRows();
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < per_thread; ++i) {
        agent->EmitTuple(kQuery, rows[i & 7]);
      }
    });
  }
  while (ready.load() != threads) {
  }
  int64_t start = MonotonicNanos();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) {
    w.join();
  }
  int64_t elapsed = MonotonicNanos() - start;
  agent->Flush(elapsed);  // Reset interval state between passes.
  return static_cast<double>(threads) * per_thread * 1e9 / elapsed;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace
}  // namespace pivot

int main() {
  using namespace pivot;

  const unsigned hw = std::thread::hardware_concurrency();
  BenchJson json("emit_mt");
  printf("Emission-path benchmark: sharded vs global-lock intake (hw threads: %u)\n\n", hw);

  Harness sharded(8);
  Harness single(1);
  printf("shard counts: sharded=%zu baseline=%zu\n\n", sharded.agent->shard_count(),
         single.agent->shard_count());

  // ---- 1. Single-thread ns/tuple ----
  // The two configurations run in interleaved passes, alternating which goes
  // first, so one noisy pass cannot decide the gate: each side's figure is
  // the median of its passes. A flush after each pass resets the interval.
  double st_single;
  double st_sharded;
  {
    constexpr int kIters = 100'000;
    constexpr int kPasses = 15;
    const std::vector<Tuple> rows = MakeRows();
    std::vector<double> single_ns;
    std::vector<double> sharded_ns;
    auto pass = [&](Harness& h, std::vector<double>* ns) {
      int i = 0;
      ns->push_back(PassNs([&] { h.agent->EmitTuple(kQuery, rows[i++ & 7]); }, kIters));
      h.agent->Flush(1'000);
    };
    for (int p = 0; p < kPasses; ++p) {
      if (p % 2 == 0) {
        pass(single, &single_ns);
        pass(sharded, &sharded_ns);
      } else {
        pass(sharded, &sharded_ns);
        pass(single, &single_ns);
      }
    }
    st_single = Median(single_ns);
    st_sharded = Median(sharded_ns);
  }
  double st_ratio = st_sharded / st_single;
  printf("Single-thread EmitTuple (median of interleaved passes):\n");
  printf("  global-lock (1 shard) %7.1f ns/tuple\n", st_single);
  printf("  sharded (8 shards)    %7.1f ns/tuple   (ratio %.2fx)\n\n", st_sharded, st_ratio);
  json.Report("st_ns_global_lock", st_single, "ns");
  json.Report("st_ns_sharded", st_sharded, "ns");
  json.Report("st_ratio", st_ratio, "x");

  // ---- 2. Multi-thread scaling ----
  // The two configurations run in interleaved pairs, alternating which goes
  // first, so machine noise lands on both alike; each figure is the median of
  // kReps pairs, and the gate reads the median of the per-pair speedups.
  constexpr int kPerThread = 200'000;
  constexpr int kReps = 7;
  double mt_speedup = 0.0;
  printf("Aggregate intake throughput (M tuples/s, median of %d interleaved pairs):\n", kReps);
  printf("  threads   global-lock   sharded   speedup\n");
  for (int threads : {1, 2, 4, 8}) {
    std::vector<double> a(kReps);
    std::vector<double> b(kReps);
    std::vector<double> speedups(kReps);
    for (int rep = 0; rep < kReps; ++rep) {
      if (rep % 2 == 0) {
        a[rep] = MeasureThroughput(single.agent.get(), threads, kPerThread);
        b[rep] = MeasureThroughput(sharded.agent.get(), threads, kPerThread);
      } else {
        b[rep] = MeasureThroughput(sharded.agent.get(), threads, kPerThread);
        a[rep] = MeasureThroughput(single.agent.get(), threads, kPerThread);
      }
      speedups[rep] = b[rep] / a[rep];
    }
    const double speedup = Median(speedups);
    printf("  %7d   %11.2f   %7.2f   %6.2fx\n", threads, Median(a) / 1e6, Median(b) / 1e6,
           speedup);
    json.Report("mt_" + std::to_string(threads) + "t_global_lock", Median(a) / 1e6, "Mtuples/s");
    json.Report("mt_" + std::to_string(threads) + "t_sharded", Median(b) / 1e6, "Mtuples/s");
    if (threads == 8) {
      mt_speedup = speedup;
    }
  }
  printf("\n8-thread sharded speedup over global lock: %.2fx\n", mt_speedup);
  printf("shard-lock collisions observed: %llu (sharded) %llu (global)\n",
         static_cast<unsigned long long>(sharded.agent->shard_contentions()),
         static_cast<unsigned long long>(single.agent->shard_contentions()));
  json.Report("mt_speedup_8t", mt_speedup, "x");
  json.Report("shard_contentions", static_cast<double>(sharded.agent->shard_contentions()),
              "count");

  // ---- Gates ----
  bool fail = false;
  if (st_ratio > kMaxStRatio) {
    printf("\nFAIL: sharded single-thread intake %.2fx the global-lock cost (max %.2fx)\n",
           st_ratio, kMaxStRatio);
    fail = true;
  } else {
    printf("\nPASS: sharded single-thread intake %.2fx the global-lock cost (<= %.2fx)\n",
           st_ratio, kMaxStRatio);
  }
  if (hw < 4) {
    // One core interleaves all "concurrent" emitters, so the global lock is
    // never actually contended and sharding has nothing to win. The ratio is
    // unmeasurable here, not violated: skip rather than fail, and let the
    // multi-core CI runner enforce it.
    printf("SKIP: multi-thread scaling gate needs >= 4 hardware threads (have %u)\n", hw);
    json.Report("mt_gate_skipped", 1.0, "bool");
  } else if (mt_speedup < kMinMtSpeedup) {
    printf("FAIL: sharded intake only %.2fx global lock at 8 threads (need >= %.2fx)\n",
           mt_speedup, kMinMtSpeedup);
    fail = true;
  } else {
    printf("PASS: sharded intake %.2fx global lock at 8 threads (>= %.2fx required)\n",
           mt_speedup, kMinMtSpeedup);
  }

  json.Write();
  return fail ? 1 : 0;
}
