#include "core/shapley_sampled.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/state_vector.hpp"
#include "core/estimator.hpp"
#include "core/shapley.hpp"
#include "util/rng.hpp"

namespace vmp::core {
namespace {

using common::StateVector;

// --- Kernel tier ------------------------------------------------------------

// A fully-materialized random game over n players, reusable as both the
// sampled kernel's u64-mask worth and the exact solver's Coalition worth.
std::vector<double> random_game(std::size_t n, std::uint64_t seed) {
  std::vector<double> table(std::size_t{1} << n);
  util::Rng rng(seed);
  for (double& v : table) v = rng.uniform(0.0, 10.0);
  table[0] = 0.0;
  return table;
}

SampledWorthFn table_worth(const std::vector<double>& table) {
  return [&table](std::uint64_t members) {
    return table[static_cast<std::size_t>(members)];
  };
}

TEST(SampledShapley, TinyGamesAreSolvedExactlyByTheWarmUp) {
  SampledShapleyOptions options;
  for (std::size_t n = 1; n <= 3; ++n) {
    const auto table = random_game(n, 11 + n);
    const double grand = table.back();
    const auto exact = shapley_values(
        n, [&](Coalition s) { return table[s.mask()]; });
    const auto result =
        sampled_shapley_values(n, table_worth(table), grand, options);
    ASSERT_EQ(result.phi.size(), n);
    EXPECT_STREQ(to_string(result.stopped_by), "exact");
    EXPECT_EQ(result.rounds, 0u);
    EXPECT_EQ(result.max_halfwidth_w, 0.0);
    // Warm-up evaluations only: v(∅), singletons (n>=2), co-singletons
    // (n>=3); the grand worth is anchored, never evaluated.
    const std::size_t expected = 1 + (n >= 2 ? n : 0) + (n >= 3 ? n : 0);
    EXPECT_EQ(result.worth_evaluations, expected) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(result.phi[i], exact[i], 1e-12) << "n=" << n << " i=" << i;
  }
}

TEST(SampledShapley, EstimateFallsInsideItsOwnConfidenceInterval) {
  constexpr std::size_t n = 10;
  const auto table = random_game(n, 42);
  const double grand = table.back();
  const auto exact =
      shapley_values(n, [&](Coalition s) { return table[s.mask()]; });

  SampledShapleyOptions options;
  options.seed = 7;
  options.max_samples = 4000;
  const auto result = sampled_shapley_values(n, table_worth(table), grand,
                                             options);
  EXPECT_STREQ(to_string(result.stopped_by), "max_samples");
  EXPECT_LE(result.worth_evaluations, options.max_samples);
  EXPECT_GT(result.rounds, 0u);
  EXPECT_EQ(result.unseen_strata, 0u);
  // The reported 3-sigma interval must cover the exact value. The estimate
  // carries the uniform efficiency shift, which is itself bounded by the
  // summed half-widths spread over n players.
  const double shift_slack = result.sum_halfwidth_w / n;
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LE(std::abs(result.phi[i] - exact[i]),
              result.halfwidth_w[i] + shift_slack)
        << "player " << i;
  // Pre-shift gap inside the conservative bound (the invariant the fleet
  // monitor watches), and post-shift efficiency exact.
  EXPECT_LE(result.efficiency_gap_w, result.sum_halfwidth_w);
  EXPECT_NEAR(std::accumulate(result.phi.begin(), result.phi.end(), 0.0),
              grand, 1e-9);
}

TEST(SampledShapley, SameSeedRunsAreByteIdentical) {
  constexpr std::size_t n = 12;
  const auto table = random_game(n, 5);
  SampledShapleyOptions options;
  options.seed = 99;
  options.max_samples = 1500;

  const auto first =
      sampled_shapley_values(n, table_worth(table), table.back(), options);
  const auto again =
      sampled_shapley_values(n, table_worth(table), table.back(), options);
  EXPECT_EQ(again.phi, first.phi);  // exact, not NEAR.
  EXPECT_EQ(again.halfwidth_w, first.halfwidth_w);
  EXPECT_EQ(again.worth_evaluations, first.worth_evaluations);
  EXPECT_EQ(again.rounds, first.rounds);

  // The seed keys every round's draws: another seed samples other
  // coalitions and lands elsewhere.
  options.seed = 100;
  const auto reseeded =
      sampled_shapley_values(n, table_worth(table), table.back(), options);
  EXPECT_EQ(reseeded.worth_evaluations, first.worth_evaluations);
  EXPECT_NE(reseeded.phi, first.phi);
}

TEST(SampledShapley, HalfwidthHalvesWhenTheBudgetQuadruples) {
  // The CI half-width is z·sd/sqrt(draws): every 4x budget step should halve
  // it, give or take the variance estimate's own noise.
  for (const std::size_t n : {6u, 8u, 10u}) {
    util::Rng rng(n * 31);
    std::vector<double> table(std::size_t{1} << n);
    for (double& w : table) w = rng.uniform(0.0, 50.0);
    table[0] = 0.0;
    const auto exact =
        shapley_values(n, [&](Coalition s) { return table[s.mask()]; });

    double previous = 0.0;
    for (const std::size_t budget : {400u, 1600u, 6400u}) {
      SampledShapleyOptions options;
      options.seed = 1234;
      options.max_samples = budget;
      const auto result =
          sampled_shapley_values(n, table_worth(table), table.back(), options);
      if (previous > 0.0) {
        const double ratio = result.max_halfwidth_w / previous;
        EXPECT_GT(ratio, 0.35) << "n=" << n << " budget=" << budget;
        EXPECT_LT(ratio, 0.65) << "n=" << n << " budget=" << budget;
      }
      previous = result.max_halfwidth_w;
      const double shift_slack = result.sum_halfwidth_w / n;
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(result.phi[i] - exact[i]),
                  result.halfwidth_w[i] + shift_slack)
            << "n=" << n << " budget=" << budget << " player " << i;
    }
  }
}

TEST(SampledShapley, AnytimeStopRulesFireAsConfigured) {
  constexpr std::size_t n = 8;
  const auto table = random_game(n, 3);
  const double grand = table.back();

  // Half-width target with an unlimited sample budget.
  SampledShapleyOptions by_halfwidth;
  by_halfwidth.max_samples = 0;
  by_halfwidth.target_halfwidth_w = 2.0;
  const auto hw =
      sampled_shapley_values(n, table_worth(table), grand, by_halfwidth);
  EXPECT_STREQ(to_string(hw.stopped_by), "halfwidth");
  EXPECT_LE(hw.max_halfwidth_w, by_halfwidth.target_halfwidth_w);

  // A wall-clock budget that has always elapsed by the first check.
  SampledShapleyOptions by_budget;
  by_budget.max_samples = 0;
  by_budget.budget_ns = 1;
  const auto budget =
      sampled_shapley_values(n, table_worth(table), grand, by_budget);
  EXPECT_STREQ(to_string(budget.stopped_by), "budget");
  // The deterministic warm-up always completes, budget or not.
  EXPECT_GE(budget.worth_evaluations, 1 + 2 * n);

  // An evaluation budget below one round still runs the warm-up, then stops.
  SampledShapleyOptions by_samples;
  by_samples.max_samples = 1 + 2 * n;
  const auto samples =
      sampled_shapley_values(n, table_worth(table), grand, by_samples);
  EXPECT_STREQ(to_string(samples.stopped_by), "max_samples");
  EXPECT_EQ(samples.worth_evaluations, by_samples.max_samples);
  EXPECT_EQ(samples.rounds, 0u);
  // With zero middle draws every middle stratum is finalized from the
  // proportional-fallback path and counted.
  EXPECT_GT(samples.unseen_strata, 0u);
  // Efficiency still holds exactly: the shift normalizes any fallback.
  EXPECT_NEAR(std::accumulate(samples.phi.begin(), samples.phi.end(), 0.0),
              grand, 1e-9);
}

TEST(SampledShapley, SixtyFourPlayerAdditiveGameInBoundedTime) {
  constexpr std::size_t n = 64;  // the kMaxSampledPlayers ceiling itself.
  const auto weight = [](std::size_t i) {
    return 0.1 * static_cast<double>(i + 1);
  };
  const SampledWorthFn worth = [&](std::uint64_t members) {
    double sum = 0.0;
    for (std::uint64_t m = members; m != 0; m &= m - 1)
      sum += weight(static_cast<std::size_t>(std::countr_zero(m)));
    return sum;
  };
  double grand = 0.0;
  for (std::size_t i = 0; i < n; ++i) grand += weight(i);

  SampledShapleyOptions options;
  options.seed = 17;
  options.max_samples = 20'000;
  const auto result = sampled_shapley_values(n, worth, grand, options);
  EXPECT_STREQ(to_string(result.stopped_by), "max_samples");
  EXPECT_LE(result.worth_evaluations, options.max_samples);
  EXPECT_NEAR(std::accumulate(result.phi.begin(), result.phi.end(), 0.0),
              grand, 1e-8);
  // Additive game: φ_i is exactly the weight; the CI must cover it.
  const double shift_slack = result.sum_halfwidth_w / n;
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LE(std::abs(result.phi[i] - weight(i)),
              result.halfwidth_w[i] + shift_slack)
        << "player " << i;
}

TEST(SampledShapley, InputValidation) {
  const SampledWorthFn worth = [](std::uint64_t) { return 0.0; };
  SampledShapleyOptions options;
  EXPECT_THROW(sampled_shapley_values(0, worth, 0.0, options),
               std::invalid_argument);
  EXPECT_THROW(
      sampled_shapley_values(kMaxSampledPlayers + 1, worth, 0.0, options),
      std::invalid_argument);
  EXPECT_THROW(sampled_shapley_values(4, SampledWorthFn{}, 0.0, options),
               std::invalid_argument);
  SampledShapleyOptions no_stop;
  no_stop.max_samples = 0;
  no_stop.target_halfwidth_w = 0.0;
  no_stop.budget_ns = 0;
  EXPECT_THROW(sampled_shapley_values(4, worth, 0.0, no_stop),
               std::invalid_argument);
}

// --- Estimator tier ---------------------------------------------------------

// The exact single-VHC linear law power = w * aggregated cpu (the same
// fixture test_estimator.cpp uses); distinct cpu utilizations make distinct
// players under detect_symmetry's bit-identical-state rule.
VhcLinearApprox exact_linear_approx(double w_cpu) {
  VscTable table(1, 0.01);
  util::Rng rng(1);
  for (int k = 0; k < 200; ++k) {
    const double cpu = rng.uniform(0.0, 2.0);
    table.record(0b1, {{StateVector::cpu_only(cpu)}}, w_cpu * cpu);
  }
  return VhcLinearApprox::fit(table);
}

// `distinct` VMs with pairwise-distinct states plus `duplicated` extra VMs
// replaying the first state. Returns the samples and the summed cpu.
std::vector<VmSample> mixed_fleet(std::size_t distinct, std::size_t duplicated,
                                  double* total_cpu = nullptr) {
  std::vector<VmSample> vms;
  double sum = 0.0;
  for (std::size_t i = 0; i < distinct + duplicated; ++i) {
    const double cpu =
        i < distinct ? 0.3 + 0.017 * static_cast<double>(i) : 0.3;
    vms.push_back({static_cast<std::uint32_t>(i), 0, StateVector::cpu_only(cpu)});
    sum += cpu;
  }
  if (total_cpu != nullptr) *total_cpu = sum;
  return vms;
}

TEST(ShapleyVhcEstimator, KernelFallThroughPinsTheCompositionBoundary) {
  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(10.0));
  SampledKernelConfig config;
  config.composition_threshold = 256;
  estimator.set_sampled_kernel(config);

  // 8 all-distinct VMs: composition count is exactly 2^8 = 256 — *at* the
  // threshold, not above it — and with no symmetry to collapse the batched
  // mask sweep is the chosen exact kernel.
  double total_cpu = 0.0;
  const auto eight = mixed_fleet(8, 0, &total_cpu);
  (void)estimator.estimate(eight, 10.0 * total_cpu);
  EXPECT_EQ(estimator.last_kernel(), "sweep");

  // One duplicated state shrinks 8 VMs to 7 groups: 3 * 2^6 = 192
  // compositions, and symmetry collapse wins.
  const auto paired = mixed_fleet(7, 1, &total_cpu);
  (void)estimator.estimate(paired, 10.0 * total_cpu);
  EXPECT_EQ(estimator.last_kernel(), "collapsed");

  // 9 all-distinct VMs: 2^9 = 512 > 256 — the first composition count over
  // the threshold falls through to the sampled tier.
  const auto nine = mixed_fleet(9, 0, &total_cpu);
  const auto phi = estimator.estimate(nine, 10.0 * total_cpu);
  EXPECT_EQ(estimator.last_kernel(), "sampled");
  EXPECT_NE(estimator.last_sampled().stopped_by, "none");
  EXPECT_NEAR(std::accumulate(phi.begin(), phi.end(), 0.0), 10.0 * total_cpu,
              1e-9);
}

TEST(ShapleyVhcEstimator, SampledTierMatchesTheExactKernelWithinItsCi) {
  constexpr std::size_t n = 12;
  double total_cpu = 0.0;
  const auto vms = mixed_fleet(n, 0, &total_cpu);
  const double measured = 10.0 * total_cpu;

  ShapleyVhcEstimator exact(VhcUniverse({0}), exact_linear_approx(10.0));
  const auto reference = exact.estimate(vms, measured);
  EXPECT_EQ(exact.last_kernel(), "sweep");

  ShapleyVhcEstimator sampled(VhcUniverse({0}), exact_linear_approx(10.0));
  SampledKernelConfig config;
  config.kernel = SampledKernelConfig::Kernel::kSampled;
  config.sampling.seed = 4;
  config.sampling.max_samples = 6000;
  sampled.set_sampled_kernel(config);
  const auto approx = sampled.estimate(vms, measured);
  EXPECT_EQ(sampled.last_kernel(), "sampled");

  const SampledTickStats& stats = sampled.last_sampled();
  EXPECT_EQ(stats.stopped_by, "max_samples");
  EXPECT_GT(stats.worth_evaluations, 0u);
  EXPECT_LE(stats.efficiency_gap_w, stats.sum_halfwidth_w);
  const double bound =
      stats.max_halfwidth_w + stats.sum_halfwidth_w / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_LE(std::abs(approx[i] - reference[i]), bound) << "vm " << i;
  EXPECT_NEAR(std::accumulate(approx.begin(), approx.end(), 0.0), measured,
              1e-9);
}

TEST(ShapleyVhcEstimator, AutoPicksSampledForSixtyFourDistinctVms) {
  // 64 pairwise-distinct VMs: 2^64 compositions saturates to SIZE_MAX,
  // clearing any finite threshold — the host answers in bounded time where
  // every exact kernel would never return.
  double total_cpu = 0.0;
  auto vms = mixed_fleet(64, 0, &total_cpu);
  vms[63].state = StateVector::zero();  // one idle VM rides along.
  total_cpu -= 0.3 + 0.017 * 63.0;
  const double measured = 10.0 * total_cpu;

  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(10.0));
  const auto phi = estimator.estimate(vms, measured);
  EXPECT_EQ(estimator.last_kernel(), "sampled");
  const SampledTickStats& stats = estimator.last_sampled();
  EXPECT_LE(stats.worth_evaluations, SampledShapleyOptions{}.max_samples);
  EXPECT_EQ(estimator.worth_queries(), stats.worth_evaluations);
  EXPECT_NEAR(std::accumulate(phi.begin(), phi.end(), 0.0), measured, 1e-9);
  // The additive law makes 10 * cpu the exact share; the idle VM is ~0.
  const double bound =
      stats.max_halfwidth_w + stats.sum_halfwidth_w / 64.0;
  for (std::size_t i = 0; i < 63; ++i)
    EXPECT_LE(std::abs(phi[i] - 10.0 * (0.3 + 0.017 * static_cast<double>(i))),
              bound)
        << "vm " << i;
  EXPECT_LE(std::abs(phi[63]), bound);
}

TEST(ShapleyVhcEstimator, SampledTicksReplayExactlyAndNeverShareDraws) {
  constexpr std::size_t n = 16;
  double total_cpu = 0.0;
  const auto vms = mixed_fleet(n, 0, &total_cpu);
  const double measured = 10.0 * total_cpu;

  SampledKernelConfig config;
  config.kernel = SampledKernelConfig::Kernel::kSampled;
  config.sampling.max_samples = 2000;

  // Same config, same call order: two estimators agree byte-for-byte.
  ShapleyVhcEstimator serial(VhcUniverse({0}), exact_linear_approx(10.0));
  serial.set_sampled_kernel(config);
  ShapleyVhcEstimator replay(VhcUniverse({0}), exact_linear_approx(10.0));
  replay.set_sampled_kernel(config);

  const auto first = serial.estimate(vms, measured);
  EXPECT_EQ(first, replay.estimate(vms, measured));

  // The next tick mixes the call counter into the seed: identical input,
  // different draws, so the estimate moves (while staying reproducible).
  const auto second = serial.estimate(vms, measured);
  EXPECT_NE(first, second);
  EXPECT_EQ(second, replay.estimate(vms, measured));
}

TEST(ShapleyVhcEstimator, ForcedKernelsRespectTheirOwnLimits) {
  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(10.0));

  // Forcing the 2^n sweep past kMaxPlayers is refused, not attempted.
  SampledKernelConfig force_sweep;
  force_sweep.kernel = SampledKernelConfig::Kernel::kSweep;
  estimator.set_sampled_kernel(force_sweep);
  double total_cpu = 0.0;
  const auto big = mixed_fleet(kMaxPlayers + 1, 0, &total_cpu);
  EXPECT_THROW(estimator.estimate(big, 10.0 * total_cpu),
               std::invalid_argument);

  // Forcing the sampled tier works at any size, even where auto would pick
  // an exact kernel.
  SampledKernelConfig force_sampled;
  force_sampled.kernel = SampledKernelConfig::Kernel::kSampled;
  estimator.set_sampled_kernel(force_sampled);
  const auto vms = mixed_fleet(4, 0, &total_cpu);
  const auto phi = estimator.estimate(vms, 10.0 * total_cpu);
  EXPECT_EQ(estimator.last_kernel(), "sampled");
  EXPECT_NEAR(std::accumulate(phi.begin(), phi.end(), 0.0), 10.0 * total_cpu,
              1e-9);

  // Past kMaxSampledPlayers nothing can meter the host.
  const auto too_big = mixed_fleet(kMaxSampledPlayers + 1, 0, &total_cpu);
  EXPECT_THROW(estimator.estimate(too_big, 10.0 * total_cpu),
               std::invalid_argument);
}

TEST(SymmetryGroups, CompositionCountSaturatesInsteadOfWrapping) {
  // 64 singleton groups would be 2^64 compositions — one past what size_t
  // holds — and must clamp to SIZE_MAX so threshold comparisons stay sane.
  std::vector<std::size_t> keys(64, 0);
  std::vector<StateVector> states;
  for (std::size_t i = 0; i < 64; ++i)
    states.push_back(StateVector::cpu_only(0.01 * static_cast<double>(i + 1)));
  const SymmetryGroups groups = detect_symmetry(keys, states);
  ASSERT_TRUE(groups.all_distinct());
  EXPECT_EQ(groups.composition_count(),
            std::numeric_limits<std::size_t>::max());
}

}  // namespace
}  // namespace vmp::core
