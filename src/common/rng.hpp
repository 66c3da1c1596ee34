// Deterministic pseudo-random number generation.
//
// Every stochastic choice in the simulator and in the Mimic Controller
// (path selection, m-address generation, workload arrival) draws from an
// explicitly seeded Rng so that a run is reproducible bit-for-bit from its
// seed (invariant SIM-1 in DESIGN.md).  The generator is xoshiro256**,
// seeded through SplitMix64.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace mic {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** deterministic generator.  Satisfies the bare minimum of
/// UniformRandomBitGenerator so it composes with <algorithm> if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl64(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl64(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  bound must be > 0.
  std::uint64_t below(std::uint64_t bound) noexcept {
    MIC_ASSERT(bound > 0);
    // Debiased multiply-shift (Lemire).
    for (;;) {
      const std::uint64_t x = next();
      const uint128 m = static_cast<uint128>(x) * static_cast<uint128>(bound);
      const std::uint64_t low = static_cast<std::uint64_t>(m);
      if (low >= bound || low >= (0 - bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
    MIC_ASSERT(lo <= hi);
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return uniform01() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[below(i)]);
    }
  }

  /// Derive an independent child generator; used to give each component its
  /// own stream so that adding draws in one place does not perturb others.
  Rng fork() noexcept { return Rng(next() ^ 0xa5a5a5a5a5a5a5a5ULL); }

 private:
  static constexpr std::uint64_t rotl64(std::uint64_t v, int r) noexcept {
    return (v << r) | (v >> (64 - r));
  }

  std::uint64_t state_[4]{};
};

/// Capped exponential backoff with seeded jitter before retry `attempt`
/// (1-based): min(base * 2^(attempt-1), cap) plus a uniform draw in
/// [0, base).  The doubling stops after 20 steps; base * 2^20 must not
/// overflow.  Draws from `rng` exactly once.
inline std::uint64_t capped_backoff(std::uint64_t base, std::uint64_t cap,
                                    int attempt, Rng& rng) noexcept {
  MIC_ASSERT(attempt >= 1);
  const std::uint64_t backoff = base << std::min(attempt - 1, 20);
  return std::min(backoff, cap) + rng.below(base);
}

}  // namespace mic
