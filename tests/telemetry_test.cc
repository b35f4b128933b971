#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/core/tracepoint.h"
#include "src/telemetry/metrics.h"

namespace pivot {
namespace telemetry {
namespace {

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  // Registry counters use fetch_add on per-thread stripes: they must not
  // lose counts.
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramTest, CountSumAndBuckets) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(100);
  h.Observe(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1101u);
}

TEST(HistogramTest, QuantileUpperBound) {
  Histogram h;
  for (int i = 0; i < 99; ++i) {
    h.Observe(10);  // Bucket upper bound 15 (2^4 - 1).
  }
  h.Observe(100000);
  // p50 falls in the bucket holding the 10s; the bound is the bucket's top.
  EXPECT_EQ(h.QuantileUpperBound(0.5), 15u);
  // The max lands in the outlier's bucket (rank = floor(q * count), so only
  // q=1 is guaranteed to reach the last observation).
  EXPECT_GE(h.QuantileUpperBound(1.0), 100000u);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.QuantileUpperBound(0.5), 0u);
  EXPECT_EQ(h.count(), 0u);
}

TEST(HistogramTest, ConcurrentObserves) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<uint64_t>(t) * 100 + 1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// Runs `body(thread_index)` on `threads` threads and joins them.
template <typename Body>
void RunThreads(int threads, Body body) {
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&body, t] { body(t); });
  }
  for (auto& w : workers) {
    w.join();
  }
}

TEST(StripedTelemetryTest, FourThreadsOfAMillionUpdatesStayExact) {
  // Each thread writes its own stripe; reads sum them, losing nothing.
  Counter c;
  Histogram h;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 1'000'000;
  RunThreads(kThreads, [&](int t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      c.Increment();
      h.Observe(i % 2 == 0 ? 0 : uint64_t{1} << (t * 8));  // Buckets 0 and 8t+1.
    }
  });
  const uint64_t total = kThreads * kPerThread;
  EXPECT_EQ(c.value(), total);
  EXPECT_EQ(h.count(), total);
  uint64_t sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    sum += (kPerThread / 2) << (t * 8);
    EXPECT_EQ(h.bucket(t * 8 + 1), kPerThread / 2) << t;
  }
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.bucket(0), total / 2);
  EXPECT_EQ(h.QuantileUpperBound(0.5), 0u);
}

TEST(StripedTelemetryTest, ThreadsSharingAStripeStayExact) {
  // More threads than stripes: some share one, and still count exactly.
  Counter c;
  Histogram h;
  const int threads = static_cast<int>(2 * kThreadSlots + 1);
  constexpr uint64_t kPerThread = 20'000;
  RunThreads(threads, [&](int) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      c.Increment(2);
      h.Observe(3);
    }
  });
  EXPECT_EQ(c.value(), 2 * kPerThread * threads);
  EXPECT_EQ(h.count(), kPerThread * threads);
  EXPECT_EQ(h.sum(), 3 * kPerThread * threads);
  EXPECT_EQ(h.bucket(2), kPerThread * threads);
}

TEST(StripedTelemetryTest, TracepointWovenCountsStayExactUnderThreads) {
  TracepointRegistry registry;
  TracepointDef def;
  def.name = "T";
  Tracepoint* tp = *registry.Define(std::move(def));
  ASSERT_TRUE(
      registry.WeaveQuery(1, {{"T", std::make_shared<Advice>(std::vector<Advice::Op>{})}}).ok());
  ProcessRuntime runtime;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100'000;
  std::atomic<int64_t> wall_nanos{0};
  RunThreads(kThreads, [&](int) {
    ExecutionContext ctx(&runtime);
    const int64_t start = MonotonicNanos();
    for (int i = 0; i < kPerThread; ++i) {
      tp->Invoke(&ctx, {});
    }
    wall_nanos.fetch_add(MonotonicNanos() - start);
  });
  EXPECT_EQ(tp->woven_fires(), static_cast<uint64_t>(kThreads) * kPerThread);
  // Advice time is a part of the threads' wall time, never more.
  EXPECT_GT(tp->advice_nanos(), 0u);
  EXPECT_LE(tp->advice_nanos(), static_cast<uint64_t>(wall_nanos.load()));
}

TEST(MetricsRegistryTest, ReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
  Histogram& h1 = registry.GetHistogram("y");
  Histogram& h2 = registry.GetHistogram("y");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistryTest, SnapshotsAndRender) {
  MetricsRegistry registry;
  registry.GetCounter("alpha").Increment(3);
  registry.GetHistogram("beta").Observe(7);
  auto counters = registry.Counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].name, "alpha");
  EXPECT_EQ(counters[0].value, 3u);
  auto hists = registry.Histograms();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].name, "beta");
  EXPECT_EQ(hists[0].count, 1u);
  EXPECT_EQ(hists[0].sum, 7u);

  std::string text = registry.RenderText();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"beta\""), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalIsSingleton) {
  EXPECT_EQ(&Metrics(), &MetricsRegistry::Global());
}

TEST(TracepointStatsTest, CountsFiresWovenAndUnwoven) {
  TracepointRegistry registry;
  TracepointDef def;
  def.name = "T";
  def.exports = {"v"};
  Result<Tracepoint*> tp = registry.Define(std::move(def));
  ASSERT_TRUE(tp.ok());

  // Unwoven fires take the fast path and count nothing.
  for (int i = 0; i < 5; ++i) {
    (*tp)->Invoke(nullptr, {});
  }
  EXPECT_EQ((*tp)->woven_fires(), 0u);
  EXPECT_EQ((*tp)->advice_nanos(), 0u);

  // Weave trivial (empty-program) advice: woven fires start counting.
  Advice::Ptr advice = std::make_shared<Advice>(std::vector<Advice::Op>{});
  ASSERT_TRUE(registry.WeaveQuery(1, {{"T", advice}}).ok());
  for (int i = 0; i < 3; ++i) {
    (*tp)->Invoke(nullptr, {});
  }
  EXPECT_EQ((*tp)->woven_fires(), 3u);

  auto rows = registry.StatsSnapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "T");
  EXPECT_EQ(rows[0].woven_fires, 3u);
  EXPECT_EQ(rows[0].advice_nanos, (*tp)->advice_nanos());

  registry.UnweaveQuery(1);
  (*tp)->Invoke(nullptr, {});
  EXPECT_EQ((*tp)->woven_fires(), 3u);
}

}  // namespace
}  // namespace telemetry
}  // namespace pivot
