// Self-telemetry primitives: the monitoring system monitors itself.
//
// The paper's evaluation quantifies Pivot Tracing's own cost — tracepoint
// overhead (Table 5), baggage bytes on the wire (Fig 10), tuple traffic (§6)
// — but only via external benches. This registry gives the running system the
// same numbers from the inside: monotonic counters and fixed-bucket
// histograms behind relaxed atomics, cheap enough to leave on everywhere.
//
// Hot-path contract:
//  * Counter::Increment / Histogram::Observe are lock-free relaxed RMWs on
//    the calling thread's stripe and never allocate; no two threads write
//    one cache line while threads do not outnumber the stripes.
//  * Registration (GetCounter / GetHistogram) takes a mutex and may allocate;
//    call it once at startup (or via a function-local static) and cache the
//    returned reference — it is stable for the registry's lifetime.
//
// Counts are exact. Reads sum the stripes, so a snapshot taken
// mid-increment may be off by in-flight operations, which is the standard
// monitoring trade.

#ifndef PIVOT_SRC_TELEMETRY_METRICS_H_
#define PIVOT_SRC_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/thread_ordinal.h"

namespace pivot {
namespace telemetry {

// Counter and Histogram keep kThreadSlots stripes: a writer updates the
// stripe of its ThreadSlot, and each stripe fills whole cache lines, so
// concurrent writers on different threads share no line. Reads sum the
// stripes. Threads that share a stripe (more threads than stripes) still
// count exactly, because every update is an atomic read-modify-write.

// Monotonic event counter. Exact under concurrency.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) {
    stripes_[ThreadSlot()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const;

 private:
  struct alignas(kCacheLine) Stripe {
    std::atomic<uint64_t> value{0};
  };
  std::array<Stripe, kThreadSlots> stripes_{};
};

// Latency/size histogram with fixed power-of-two buckets: bucket i counts
// observations v with bit_width(v) == i (bucket 0 is v == 0). 65 buckets
// cover the full uint64 range, so there is no configuration and no
// allocation — one Observe is three relaxed fetch_adds on the caller's
// stripe.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t v) {
    Stripe& s = stripes_[ThreadSlot()];
    s.buckets[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t count() const {
    return SumStripes([](const Stripe& s) -> const auto& { return s.count; });
  }
  uint64_t sum() const {
    return SumStripes([](const Stripe& s) -> const auto& { return s.sum; });
  }
  uint64_t bucket(int i) const {
    return SumStripes([i](const Stripe& s) -> const auto& { return s.buckets[i]; });
  }

  // Upper bound of bucket i's value range (inclusive): 0, 1, 3, 7, ...
  static uint64_t BucketUpperBound(int i);
  static int BucketOf(uint64_t v);

  // Estimated quantile (q in [0,1]): the upper bound of the bucket containing
  // the q-th observation. Coarse by design (factor-of-two resolution).
  uint64_t QuantileUpperBound(double q) const;

 private:
  struct alignas(kCacheLine) Stripe {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
  };

  // The sum over the stripes of the cell `cell(stripe)` names.
  template <typename Cell>
  uint64_t SumStripes(Cell cell) const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += cell(s).load(std::memory_order_relaxed);
    }
    return total;
  }

  std::array<Stripe, kThreadSlots> stripes_{};
};

// Point-in-time copies for reporting.
struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;   // QuantileUpperBound(0.5).
  uint64_t p99 = 0;   // QuantileUpperBound(0.99).
};

// Named metric registry. One per OS process (Global()); tests may construct
// private instances.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returns the metric named `name`, creating it on first use. References
  // remain valid (and hot-path safe) for the registry's lifetime.
  Counter& GetCounter(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  std::vector<CounterSnapshot> Counters() const;
  std::vector<HistogramSnapshot> Histograms() const;

  // Human-readable dump (one metric per line) / JSON object.
  std::string RenderText() const;
  std::string RenderJson() const;

  // The process-wide registry every subsystem reports into.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  // Node-based maps: values never move, so references stay valid.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Shorthand for MetricsRegistry::Global().
MetricsRegistry& Metrics();

}  // namespace telemetry
}  // namespace pivot

#endif  // PIVOT_SRC_TELEMETRY_METRICS_H_
