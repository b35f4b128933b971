// Seedable PRNG used throughout the simulator and the property-based tests.
//
// Determinism matters here: every figure-reproducing bench seeds its own Rng so
// runs are exactly repeatable. xoshiro256** is small, fast and has no global
// state (std::mt19937 would also work but is much larger and slower to seed).

#ifndef PIVOT_SRC_COMMON_RAND_H_
#define PIVOT_SRC_COMMON_RAND_H_

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace pivot {

// xoshiro256** with splitmix64 seeding. Not cryptographic.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // splitmix64 expansion of the seed into the 256-bit state.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound) {
    assert(bound > 0);
    // Debiased modulo via rejection sampling.
    uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
    for (;;) {
      uint64_t r = NextUint64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Uniform in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo) + 1));
  }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53; }

  bool NextBool(double p_true = 0.5) { return NextDouble() < p_true; }

  // Forks an independent stream; child streams do not correlate with the
  // parent's subsequent output.
  Rng Fork() { return Rng(NextUint64() ^ 0xA5A5A5A55A5A5A5AULL); }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace pivot

#endif  // PIVOT_SRC_COMMON_RAND_H_
