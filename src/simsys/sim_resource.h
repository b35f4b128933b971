// Rate-limited FIFO resources and per-second time series.
//
// A SimResource models a device with a fixed service rate — a disk, a NIC
// link — as a single FIFO server: a transfer of B bytes arriving at time t
// begins when the device frees up and completes B/rate later. This produces
// realistic queueing (the mechanism behind the limplock experiment of Fig 9:
// downgrading one NIC's rate backs up every flow crossing it).

#ifndef PIVOT_SRC_SIMSYS_SIM_RESOURCE_H_
#define PIVOT_SRC_SIMSYS_SIM_RESOURCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/simsys/sim_env.h"

namespace pivot {

// Per-second scalar time series (the data behind every time-series figure).
class TimeSeries {
 public:
  explicit TimeSeries(const SimEnvironment* env) : env_(env) {}

  void Add(double value) { buckets_[env_->now_micros() / kMicrosPerSecond] += value; }
  void AddAt(int64_t time_micros, double value) {
    buckets_[time_micros / kMicrosPerSecond] += value;
  }

  // second index -> sum of added values in that second.
  const std::map<int64_t, double>& buckets() const { return buckets_; }

 private:
  const SimEnvironment* env_;
  std::map<int64_t, double> buckets_;
};

class SimResource {
 public:
  // `bytes_per_sec` is the service rate.
  SimResource(SimEnvironment* env, std::string name, double bytes_per_sec);

  const std::string& name() const { return name_; }
  double rate() const { return bytes_per_sec_; }

  // Changes the service rate from now on (fault injection: the limplock
  // experiment downgrades a 1 Gbit NIC to 100 Mbit).
  void set_rate(double bytes_per_sec) { bytes_per_sec_ = bytes_per_sec; }

  // Enqueues a transfer of `bytes`; `done(queued_micros, service_micros)` runs
  // at completion with how long the transfer waited and how long it was
  // serviced. Bytes are attributed to the throughput series at completion.
  void Transfer(uint64_t bytes, std::function<void(int64_t, int64_t)> done);

  // Convenience overload ignoring the timing breakdown.
  void Transfer(uint64_t bytes, std::function<void()> done);

  // Occupies the resource exclusively for `service_micros` (rate-independent),
  // queueing FIFO behind pending work. Models critical sections — e.g. the
  // HDFS NameNode's exclusive namespace lock. `done(queued_micros)` runs at
  // release with the time spent waiting for the resource.
  void Occupy(int64_t service_micros, std::function<void(int64_t)> done);

  // Time at which the resource next becomes free (>= now when busy).
  int64_t free_at() const { return free_at_; }
  // Queue delay a transfer issued now would experience.
  int64_t QueueDelay() const;

  uint64_t total_bytes() const { return total_bytes_; }
  const TimeSeries& throughput() const { return throughput_; }

 private:
  SimEnvironment* env_;
  std::string name_;
  double bytes_per_sec_;
  int64_t free_at_ = 0;
  uint64_t total_bytes_ = 0;
  TimeSeries throughput_;
};

}  // namespace pivot

#endif  // PIVOT_SRC_SIMSYS_SIM_RESOURCE_H_
