#include "core/shapley_sampled.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace vmp::core {

namespace {

/// CI multiplier for the reported half-widths (see the header).
constexpr double kConfidenceZ = 3.0;
/// Sampling rounds between stop-rule checks (one round = n−3 middle-size
/// evaluations).
constexpr std::size_t kBatchRounds = 16;

/// Counter-based RNG: each (seed, stream) pair keys an independent splitmix64
/// walk, so the draw sequence of round r depends only on (seed, r). The
/// stream offset constant is deliberately *not* the splitmix64 gamma —
/// offsetting by a multiple of the gamma would make stream k start exactly
/// where stream 0 is after k steps, overlapping the windows.
class CounterRng {
 public:
  CounterRng(std::uint64_t seed, std::uint64_t stream) noexcept
      : state_(seed) {
    (void)util::splitmix64(state_);
    state_ += stream * 0xbf58476d1ce4e5b9ULL;
    (void)util::splitmix64(state_);
  }

  std::uint64_t next() noexcept { return util::splitmix64(state_); }

  /// Unbiased uniform draw in [0, bound) via Lemire's multiply-shift
  /// rejection. bound must be nonzero.
  std::uint64_t below(std::uint64_t bound) noexcept {
    std::uint64_t x = next();
    unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<unsigned __int128>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  std::uint64_t state_;
};

inline void welford(std::uint64_t& cnt, double& mean, double& m2,
                    double x) noexcept {
  ++cnt;
  const double d = x - mean;
  mean += d / static_cast<double>(cnt);
  m2 += d * (x - mean);
}

/// Draws and evaluates one independent uniform coalition of each middle size
/// (|S| = 2..n−2), sizes ascending, and hands each (mask, size, worth) to
/// `fold`. Each size runs a fresh partial Fisher–Yates over the id array: a
/// partial shuffle of *any* permutation with fresh randomness yields a
/// uniform size-subset, so the per-size draws are mutually independent —
/// which is exactly what makes the per-player stratum-variance sum the true
/// variance of φ̂_i (nested prefixes of one permutation would be positively
/// correlated across sizes and the CI would undercover). The RNG state
/// derives from (seed, round) alone.
template <typename Fold>
void eval_round(std::size_t n, std::uint64_t seed, std::uint64_t round,
                const SampledWorthFn& worth, Fold&& fold) {
  CounterRng rng(seed, round);
  std::uint8_t ids[kMaxSampledPlayers];
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::uint8_t>(i);
  for (std::size_t size = 2; size + 2 <= n; ++size) {
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint64_t j = i + rng.below(n - i);
      std::swap(ids[i], ids[j]);
      mask |= 1ULL << ids[i];
    }
    fold(mask, size, worth(mask));
  }
}

}  // namespace

const char* to_string(SampledStopReason reason) noexcept {
  switch (reason) {
    case SampledStopReason::kExact:
      return "exact";
    case SampledStopReason::kMaxSamples:
      return "max_samples";
    case SampledStopReason::kHalfwidth:
      return "halfwidth";
    case SampledStopReason::kBudget:
      return "budget";
  }
  return "unknown";
}

void SampledShapley::fold_eval(std::size_t n, std::uint64_t members,
                               std::size_t size, double value) {
  const std::size_t stride = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t at = i * stride + size;
    if ((members >> i) & 1ULL) {
      welford(plus_cnt_[at], plus_mean_[at], plus_m2_[at], value);
    } else {
      welford(minus_cnt_[at], minus_mean_[at], minus_m2_[at], value);
    }
  }
  welford(pool_cnt_[size], pool_mean_[size], pool_m2_[size], value);
}

SampledShapleyResult SampledShapley::run(std::size_t n,
                                         const SampledWorthFn& worth,
                                         double grand_worth,
                                         const SampledShapleyOptions& options) {
  if (n == 0 || n > kMaxSampledPlayers) {
    throw std::invalid_argument("SampledShapley: player count out of range");
  }
  if (!worth) throw std::invalid_argument("SampledShapley: null worth");
  if (options.max_samples == 0 && options.target_halfwidth_w <= 0.0 &&
      options.budget_ns == 0) {
    throw std::invalid_argument("SampledShapley: every stop rule disabled");
  }
  const auto start = std::chrono::steady_clock::now();

  const std::size_t stride = n + 1;
  const std::size_t cells = n * stride;
  plus_cnt_.assign(cells, 0);
  minus_cnt_.assign(cells, 0);
  plus_mean_.assign(cells, 0.0);
  minus_mean_.assign(cells, 0.0);
  plus_m2_.assign(cells, 0.0);
  minus_m2_.assign(cells, 0.0);
  pool_cnt_.assign(stride, 0);
  pool_mean_.assign(stride, 0.0);
  pool_m2_.assign(stride, 0.0);
  var_.assign(n, 0.0);

  SampledShapleyResult result;
  result.phi.assign(n, 0.0);
  result.halfwidth_w.assign(n, 0.0);

  const std::uint64_t grand_mask =
      n == 64 ? ~0ULL : ((1ULL << n) - 1ULL);

  // --- Deterministic warm-up: make strata of size 0, 1, n−1, n exact. ---
  fold_eval(n, 0ULL, 0, worth(0ULL));
  ++result.worth_evaluations;
  fold_eval(n, grand_mask, n, grand_worth);  // anchored, not evaluated.
  if (n >= 2) {
    for (std::size_t i = 0; i < n; ++i) {
      fold_eval(n, 1ULL << i, 1, worth(1ULL << i));
      ++result.worth_evaluations;
    }
  }
  if (n >= 3) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t co = grand_mask & ~(1ULL << i);
      fold_eval(n, co, n - 1, worth(co));
      ++result.worth_evaluations;
    }
  }

  // Middle sizes 2..n−2 exist only for n >= 4; below that the warm-up has
  // already covered every stratum and the answer is exact.
  const std::size_t per_round = n >= 4 ? n - 3 : 0;

  // Per-player CI half-width from the current accumulators. Exact strata
  // (sizes 0, 1, n−1, n) contribute zero variance; a middle stratum falls
  // back to the pooled per-size variance when its own side is too thin, and
  // to "unknown" (+inf, blocking a half-width stop) when even the pool has
  // fewer than two draws.
  const auto halfwidths = [&](std::vector<double>& out) {
    const double inv_n2 = 1.0 / (static_cast<double>(n) * n);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t size = 2; size + 2 <= n; ++size) {
        const std::size_t at = i * stride + size;
        double pooled_var = -1.0;
        if (pool_cnt_[size] >= 2) {
          pooled_var = pool_m2_[size] / static_cast<double>(pool_cnt_[size] - 1);
        }
        const auto side = [&](std::uint64_t cnt, double m2) {
          if (cnt >= 2) return m2 / static_cast<double>(cnt - 1) / cnt;
          if (pooled_var >= 0.0)
            return pooled_var / static_cast<double>(std::max<std::uint64_t>(cnt, 1));
          return std::numeric_limits<double>::infinity();
        };
        acc += side(plus_cnt_[at], plus_m2_[at]);
        acc += side(minus_cnt_[at], minus_m2_[at]);
      }
      out[i] = kConfidenceZ * std::sqrt(acc * inv_n2);
    }
  };

  // --- Sampling rounds (anytime, stop rules checked per batch). ---
  if (per_round > 0) {
    result.stopped_by = SampledStopReason::kMaxSamples;
    for (;;) {
      if (options.budget_ns != 0) {
        const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
        if (static_cast<std::uint64_t>(elapsed) >= options.budget_ns) {
          result.stopped_by = SampledStopReason::kBudget;
          break;
        }
      }
      if (options.target_halfwidth_w > 0.0 && result.rounds > 0) {
        halfwidths(var_);
        if (*std::max_element(var_.begin(), var_.end()) <=
            options.target_halfwidth_w) {
          result.stopped_by = SampledStopReason::kHalfwidth;
          break;
        }
      }
      std::size_t rounds = kBatchRounds;
      if (options.max_samples != 0) {
        if (result.worth_evaluations + per_round > options.max_samples) {
          result.stopped_by = SampledStopReason::kMaxSamples;
          break;
        }
        rounds = std::min(
            rounds, (options.max_samples - result.worth_evaluations) / per_round);
      }

      for (std::size_t r = 0; r < rounds; ++r) {
        eval_round(n, options.seed, result.rounds + r, worth,
                   [&](std::uint64_t members, std::size_t size, double value) {
                     fold_eval(n, members, size, value);
                   });
      }
      result.rounds += rounds;
      result.worth_evaluations += rounds * per_round;
    }
  }

  // --- Finalize: stratum means → φ̂, variances → CI, exact efficiency. ---
  halfwidths(result.halfwidth_w);
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(result.halfwidth_w[i])) result.halfwidth_w[i] = 0.0;
  }
  double sum_raw = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double plus_sum = 0.0;
    double minus_sum = 0.0;
    for (std::size_t size = 0; size <= n; ++size) {
      const std::size_t at = i * stride + size;
      double plus = plus_mean_[at];
      double minus = minus_mean_[at];
      const bool middle = size >= 2 && size + 2 <= n;
      if (middle) {
        // Thin-side fallback: pooled per-size mean, then the proportional
        // grand split when not even one middle draw landed (tiny budgets).
        const double pooled =
            pool_cnt_[size] > 0
                ? pool_mean_[size]
                : grand_worth * static_cast<double>(size) / static_cast<double>(n);
        if (plus_cnt_[at] == 0) {
          plus = pooled;
          ++result.unseen_strata;
        }
        if (minus_cnt_[at] == 0) {
          minus = pooled;
          ++result.unseen_strata;
        }
      }
      if (size >= 1) plus_sum += plus;
      if (size <= n - 1) minus_sum += minus;
    }
    const double phi = (plus_sum - minus_sum) / static_cast<double>(n);
    result.phi[i] = phi;
    sum_raw += phi;
    result.max_halfwidth_w =
        std::max(result.max_halfwidth_w, result.halfwidth_w[i]);
    result.sum_halfwidth_w += result.halfwidth_w[i];
  }

  result.efficiency_gap_w = std::abs(grand_worth - sum_raw);
  const double shift = (grand_worth - sum_raw) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) result.phi[i] += shift;
  return result;
}

SampledShapleyResult sampled_shapley_values(std::size_t n,
                                            const SampledWorthFn& worth,
                                            double grand_worth,
                                            const SampledShapleyOptions& options) {
  SampledShapley solver;
  return solver.run(n, worth, grand_worth, options);
}

}  // namespace vmp::core
