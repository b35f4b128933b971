#include "src/telemetry/metrics.h"

#include <bit>
#include <cstdio>

namespace pivot {
namespace telemetry {

uint64_t Counter::value() const {
  uint64_t total = 0;
  for (const Stripe& s : stripes_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Histogram::BucketUpperBound(int i) {
  if (i <= 0) {
    return 0;
  }
  if (i >= 64) {
    return UINT64_MAX;
  }
  return (uint64_t{1} << i) - 1;
}

int Histogram::BucketOf(uint64_t v) { return std::bit_width(v); }

uint64_t Histogram::QuantileUpperBound(double q) const {
  uint64_t total = count();
  if (total == 0) {
    return 0;
  }
  if (q < 0) {
    q = 0;
  }
  if (q > 1) {
    q = 1;
  }
  // Rank of the target observation, 1-based.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank == 0) {
    rank = 1;
  }
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen >= rank) {
      return BucketUpperBound(i);
    }
  }
  return BucketUpperBound(kBuckets - 1);
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

std::vector<CounterSnapshot> MetricsRegistry::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CounterSnapshot> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.push_back({name, c->value()});
  }
  return out;
}

std::vector<HistogramSnapshot> MetricsRegistry::Histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.push_back({name, h->count(), h->sum(), h->QuantileUpperBound(0.5),
                   h->QuantileUpperBound(0.99)});
  }
  return out;
}

std::string MetricsRegistry::RenderText() const {
  std::string out;
  char line[256];
  for (const auto& c : Counters()) {
    snprintf(line, sizeof(line), "%-44s %llu\n", c.name.c_str(),
             static_cast<unsigned long long>(c.value));
    out += line;
  }
  for (const auto& h : Histograms()) {
    snprintf(line, sizeof(line), "%-44s count=%llu sum=%llu p50<=%llu p99<=%llu\n",
             h.name.c_str(), static_cast<unsigned long long>(h.count),
             static_cast<unsigned long long>(h.sum), static_cast<unsigned long long>(h.p50),
             static_cast<unsigned long long>(h.p99));
    out += line;
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::string out = "{\"counters\":{";
  char buf[192];
  bool first = true;
  for (const auto& c : Counters()) {
    snprintf(buf, sizeof(buf), "%s\"%s\":%llu", first ? "" : ",", c.name.c_str(),
             static_cast<unsigned long long>(c.value));
    out += buf;
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : Histograms()) {
    snprintf(buf, sizeof(buf),
             "%s\"%s\":{\"count\":%llu,\"sum\":%llu,\"p50\":%llu,\"p99\":%llu}",
             first ? "" : ",", h.name.c_str(), static_cast<unsigned long long>(h.count),
             static_cast<unsigned long long>(h.sum), static_cast<unsigned long long>(h.p50),
             static_cast<unsigned long long>(h.p99));
    out += buf;
    first = false;
  }
  out += "}}";
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry& Metrics() { return MetricsRegistry::Global(); }

}  // namespace telemetry
}  // namespace pivot
