#include "perfbench/common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "src/telemetry/metrics.h"

namespace perfbench {

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    errors.push_back(what);
  }
}

void Report::AddE2e(std::string name, double value, std::string unit) {
  e2e.push_back({std::move(name), value, std::move(unit)});
}

void Report::AddLayer(std::string name, double value, std::string unit) {
  layer.push_back({std::move(name), value, std::move(unit)});
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

void RotateCpu(int slot, uint64_t epoch) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          out.push_back(cpu);
        }
      }
    }
    return out;
  }();
  if (cpus.size() < 2) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[(static_cast<uint64_t>(slot) + epoch) % cpus.size()], &one);
  // Best effort: a refused move leaves the thread where it is.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

__attribute__((noinline)) uint64_t AppWork(uint64_t x) {
  constexpr int kAppWorkOps = 384;
  for (int i = 0; i < kAppWorkOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += static_cast<uint64_t>(i);
    asm volatile("" : "+r"(x));  // Keep the chain opaque to the optimizer.
  }
  return x;
}

uint64_t InputHash(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL ^ (stream + 1) * 0xD1B54A32D192ED03ULL ^
               (index + 1) * 0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t CounterValue(std::string_view name) {
  return pivot::telemetry::Metrics().GetCounter(name).value();
}

uint64_t HistogramSum(std::string_view name) {
  return pivot::telemetry::Metrics().GetHistogram(name).sum();
}

uint64_t HistogramCount(std::string_view name) {
  return pivot::telemetry::Metrics().GetHistogram(name).count();
}

}  // namespace perfbench
