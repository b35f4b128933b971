#include "src/simsys/sim_resource.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pivot {

SimResource::SimResource(SimEnvironment* env, std::string name, double bytes_per_sec)
    : env_(env), name_(std::move(name)), bytes_per_sec_(bytes_per_sec), throughput_(env) {
  assert(bytes_per_sec_ > 0);
}

int64_t SimResource::QueueDelay() const {
  return std::max<int64_t>(0, free_at_ - env_->now_micros());
}

void SimResource::Transfer(uint64_t bytes, std::function<void(int64_t, int64_t)> done) {
  int64_t now = env_->now_micros();
  int64_t start = std::max(now, free_at_);
  auto service = static_cast<int64_t>(
      std::llround(static_cast<double>(bytes) / bytes_per_sec_ * kMicrosPerSecond));
  if (service < 1 && bytes > 0) {
    service = 1;  // Sub-microsecond transfers still occupy the device.
  }
  int64_t finish = start + service;
  free_at_ = finish;
  total_bytes_ += bytes;

  // Attribute bytes to the completion second. Transfers spanning multiple
  // seconds are spread proportionally so throughput plots stay smooth.
  int64_t start_sec = start / kMicrosPerSecond;
  int64_t finish_sec = finish / kMicrosPerSecond;
  if (finish_sec == start_sec || service == 0) {
    throughput_.AddAt(finish, static_cast<double>(bytes));
  } else {
    for (int64_t sec = start_sec; sec <= finish_sec; ++sec) {
      int64_t span_begin = std::max(start, sec * kMicrosPerSecond);
      int64_t span_end = std::min(finish, (sec + 1) * kMicrosPerSecond);
      double fraction = static_cast<double>(span_end - span_begin) / static_cast<double>(service);
      throughput_.AddAt(sec * kMicrosPerSecond, static_cast<double>(bytes) * fraction);
    }
  }

  int64_t queued = start - now;
  env_->ScheduleAt(finish, [done = std::move(done), queued, service] { done(queued, service); });
}

void SimResource::Transfer(uint64_t bytes, std::function<void()> done) {
  Transfer(bytes, [done = std::move(done)](int64_t, int64_t) { done(); });
}

void SimResource::Occupy(int64_t service_micros, std::function<void(int64_t)> done) {
  assert(service_micros >= 0);
  int64_t now = env_->now_micros();
  int64_t start = std::max(now, free_at_);
  int64_t finish = start + service_micros;
  free_at_ = finish;
  int64_t queued = start - now;
  env_->ScheduleAt(finish, [done = std::move(done), queued] { done(queued); });
}

}  // namespace pivot
