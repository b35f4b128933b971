// The one real-time clock: monotonic (steady_clock) time since an arbitrary
// epoch. Every real-time stamp reads it — tracepoint timestamps, weave acks,
// query lifecycle events — and so do the advice, flush and bus-callback
// durations, so any two stamps of one process compare. The simulator installs
// simulated time in ProcessRuntime and Frontend instead.

#ifndef PIVOT_SRC_COMMON_CLOCK_H_
#define PIVOT_SRC_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace pivot {

inline int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline int64_t MonotonicMicros() { return MonotonicNanos() / 1000; }

}  // namespace pivot

#endif  // PIVOT_SRC_COMMON_CLOCK_H_
