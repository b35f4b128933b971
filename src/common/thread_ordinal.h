// The one per-thread index of the process: a dense thread ordinal.
//
// Thread K to ask gets ordinal K, so `ThreadOrdinal() % n` spreads threads
// evenly over n per-thread cells and a single-threaded process always lands
// in cell 0 (keeping the simulator and sequential tests byte-for-byte
// deterministic). It indexes the agent's emission shards, the telemetry
// stripes and the tracepoint counter slots, so every per-request write of a
// thread lands on cache lines no other thread writes while threads do not
// outnumber the cells.

#ifndef PIVOT_SRC_COMMON_THREAD_ORDINAL_H_
#define PIVOT_SRC_COMMON_THREAD_ORDINAL_H_

#include <atomic>
#include <cstddef>

namespace pivot {

// Cache-line size assumed by per-thread cells (x86-64 and most arm64).
inline constexpr size_t kCacheLine = 64;

inline size_t ThreadOrdinal() {
  static std::atomic<size_t> next{0};
  // Constant-initialized, so a read is one thread-local load and a branch.
  thread_local size_t ordinal = SIZE_MAX;
  if (ordinal == SIZE_MAX) [[unlikely]] {
    ordinal = next.fetch_add(1, std::memory_order_relaxed);
  }
  return ordinal;
}

// Per-thread cells an object keeps (telemetry stripes, tracepoint counter
// slots); threads beyond this many share cells.
inline constexpr size_t kThreadSlots = 8;

// The calling thread's cell among kThreadSlots.
inline size_t ThreadSlot() { return ThreadOrdinal() % kThreadSlots; }

}  // namespace pivot

#endif  // PIVOT_SRC_COMMON_THREAD_ORDINAL_H_
