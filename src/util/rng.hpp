// Deterministic pseudo-random number generation.
//
// All stochastic parts of the simulator (meter noise, synthetic workloads)
// draw from vmp::util::Rng, and the sampled Shapley tier from splitmix64
// streams, so that every experiment in this repository is reproducible from
// a single seed. The engine is xoshiro256++ seeded through SplitMix64, which
// is the standard recipe recommended by the xoshiro authors: SplitMix64
// decorrelates low-entropy seeds before they reach the main state.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace vmp::util {

/// SplitMix64 step; used for seeding and as a cheap standalone mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256++ deterministic random number generator.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements so it can be used
/// with <random> distributions, but the convenience members below are
/// preferred inside this codebase (they are stable across standard library
/// implementations, whereas std::normal_distribution et al. are not).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via SplitMix64 so that nearby seeds yield uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire rejection to
  /// avoid modulo bias.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second variate).
  [[nodiscard]] double normal() noexcept;

  /// Normal with the given mean and standard deviation (sigma >= 0).
  [[nodiscard]] double normal(double mean, double sigma) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Exponential variate with the given rate (> 0).
  [[nodiscard]] double exponential(double rate) noexcept;

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[uniform_u64(i)]);
    }
  }

  /// Forks an independent stream (for per-VM / per-component sub-generators).
  [[nodiscard]] Rng fork() noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace vmp::util
