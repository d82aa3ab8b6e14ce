#include "core/shapley_fast.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/estimator.hpp"
#include "core/vhc.hpp"
#include "util/rng.hpp"

namespace vmp::core {
namespace {

using common::Component;
using common::StateVector;
using common::VmSample;

// --- ComboWeightCache --------------------------------------------------------

/// predict() through the cache: dot(states, effective_weights(combo)).
double cached_predict(ComboWeightCache& cache, VhcComboMask combo,
                      const std::vector<StateVector>& states) {
  const auto w = cache.effective_weights(combo);
  double out = 0.0;
  for (std::size_t j = 0; j < states.size(); ++j)
    out += states[j].dot(
        w.subspan(j * common::kNumComponents, common::kNumComponents));
  return out;
}

/// Trains a 3-VHC approximation on an exact linear law, leaving the grand
/// combo {0,1,2} unfitted so predict() must use its disjoint-cover fallback.
VhcLinearApprox partial_three_vhc_approx(util::Rng& rng) {
  VscTable table(3, 0.01);
  const double w[3] = {8.0, 5.0, 3.0};  // CPU weight per VHC.
  for (VhcComboMask combo = 1; combo < 8; ++combo) {
    if (combo == 0b111) continue;  // grand combo never measured.
    for (int s = 0; s < 150; ++s) {
      std::vector<StateVector> states(3);
      double power = 0.0;
      for (std::size_t j = 0; j < 3; ++j) {
        if (((combo >> j) & 1u) == 0) continue;
        const double cpu = rng.uniform(0.0, 2.0);
        states[j] = StateVector::cpu_only(cpu);
        power += w[j] * cpu;
      }
      table.record(combo, states, power);
    }
  }
  return VhcLinearApprox::fit(table);
}

TEST(ComboWeightCache, MatchesPredictForFittedAndCoveredCombos) {
  util::Rng rng(3);
  const VhcLinearApprox approx = partial_three_vhc_approx(rng);
  ComboWeightCache cache;
  cache.bind(&approx);

  for (int s = 0; s < 20; ++s) {
    std::vector<StateVector> states(3);
    for (auto& state : states) {
      state[Component::kCpu] = rng.uniform(0.0, 2.0);
      state[Component::kMemory] = rng.uniform(0.0, 1.0);
    }
    for (VhcComboMask combo = 1; combo < 8; ++combo) {
      // Zero out states outside the combo, as the estimator does.
      std::vector<StateVector> masked(3);
      for (std::size_t j = 0; j < 3; ++j)
        if ((combo >> j) & 1u) masked[j] = states[j];
      // 0b111 is unfitted: both sides must agree on the cover fallback too.
      EXPECT_NEAR(cached_predict(cache, combo, masked),
                  approx.predict(combo, masked), 1e-9)
          << "combo " << combo;
    }
  }
}

TEST(ComboWeightCache, UncoverableComboThrowsLikePredict) {
  // Only combo {0} fitted: {1} has no cover, in a small universe and in one
  // wider than 12 VHCs alike.
  for (const std::size_t num_vhcs : {2u, 14u}) {
    VscTable table(num_vhcs, 0.01);
    util::Rng rng(5);
    std::vector<StateVector> states(num_vhcs);
    for (int s = 0; s < 100; ++s) {
      const double cpu = rng.uniform(0.0, 2.0);
      states[0] = StateVector::cpu_only(cpu);
      table.record(0b01, states, 4.0 * cpu);
    }
    const VhcLinearApprox approx = VhcLinearApprox::fit(table);
    ComboWeightCache cache;
    cache.bind(&approx);
    EXPECT_THROW((void)cache.effective_weights(0b10), std::out_of_range)
        << num_vhcs << " VHCs";
    EXPECT_THROW((void)cache.effective_weights(0b10), std::out_of_range)
        << num_vhcs << " VHCs, memoized";
    // A resolution after the failed one still gets its own, correct vector.
    states[0] = StateVector::cpu_only(1.5);
    EXPECT_DOUBLE_EQ(cached_predict(cache, 0b01, states),
                     approx.predict(0b01, states))
        << num_vhcs << " VHCs";
  }
  ComboWeightCache unbound;
  EXPECT_THROW((void)unbound.effective_weights(1), std::logic_error);
}

// --- ShapleyVhcEstimator against brute force --------------------------------

/// An approximation with every combo of an r-VHC universe fitted on a random
/// linear law.
VhcLinearApprox linear_law_approx(std::size_t r, util::Rng& rng) {
  VscTable table(r, 0.01);
  std::vector<double> w(r);
  for (auto& x : w) x = rng.uniform(2.0, 12.0);
  for (VhcComboMask combo = 1; combo < (VhcComboMask{1} << r); ++combo) {
    for (int s = 0; s < 150; ++s) {
      std::vector<StateVector> states(r);
      double power = 0.0;
      for (std::size_t j = 0; j < r; ++j) {
        if (((combo >> j) & 1u) == 0) continue;
        const double cpu = rng.uniform(0.0, 2.0);
        states[j] = StateVector::cpu_only(cpu);
        power += w[j] * cpu;
      }
      table.record(combo, states, power);
    }
  }
  return VhcLinearApprox::fit(table);
}

/// The estimator's semantics restated with public APIs and brute force:
/// anchored grand, idle filtering, the approximation's worth.
std::vector<double> reference_estimate(const VhcUniverse& universe,
                                       const VhcLinearApprox& approx,
                                       bool anchor,
                                       std::span<const VmSample> vms,
                                       double adjusted_power_w) {
  std::vector<common::VmTypeId> types;
  for (const VmSample& vm : vms) types.push_back(vm.type);
  const VhcPartition partition(universe, types);
  std::vector<StateVector> states;
  for (const VmSample& vm : vms) states.push_back(vm.state);
  const Coalition grand = Coalition::grand(vms.size());

  return nondet_shapley_values(
      states, [&](Coalition s, std::span<const StateVector> c) {
        if (s.is_empty()) return 0.0;
        if (anchor && s == grand) return adjusted_power_w;
        Coalition active = s;
        for (Player i : s.members())
          if (c[i] == StateVector::zero()) active = active.without(i);
        if (active.is_empty()) return 0.0;
        return approx.predict(partition.combo_of(active),
                              partition.aggregate(active, c));
      });
}

std::vector<VmSample> mixed_fleet(util::Rng& rng, std::size_t n,
                                  std::size_t n_types, bool duplicate_states) {
  std::vector<VmSample> vms;
  for (std::size_t i = 0; i < n; ++i) {
    VmSample vm;
    vm.vm_id = static_cast<std::uint32_t>(i);
    vm.type = static_cast<common::VmTypeId>(i % n_types);
    if (duplicate_states) {
      // Two distinct state values per type: guarantees symmetric pairs.
      vm.state = StateVector::cpu_only(0.25 + 0.5 * ((i / n_types) % 2));
    } else {
      vm.state = StateVector::cpu_only(rng.uniform(0.05, 1.0));
    }
    vms.push_back(vm);
  }
  return vms;
}

TEST(ShapleyVhcEstimatorFast, CollapsedPathMatchesReference) {
  // Repeated (type, state) pairs: 6 symmetry groups of sizes {2,2,2,1,1,1}.
  util::Rng rng(21);
  const auto approx = linear_law_approx(3, rng);
  const VhcUniverse universe({0, 1, 2});
  for (const bool anchor : {true, false}) {
    ShapleyVhcEstimator estimator(universe, approx, anchor);
    for (int round = 0; round < 3; ++round) {
      const auto vms = mixed_fleet(rng, 9, 3, /*duplicate_states=*/true);
      const double adjusted = 40.0 + 5.0 * round;
      const auto fast = estimator.estimate(vms, adjusted);
      const auto reference =
          reference_estimate(universe, approx, anchor, vms, adjusted);
      for (std::size_t i = 0; i < vms.size(); ++i)
        EXPECT_NEAR(fast[i], reference[i], 1e-9)
            << "anchor=" << anchor << " round=" << round << " vm " << i;
    }
  }
}

TEST(ShapleyVhcEstimatorFast, SweepPathMatchesReferenceForDistinctStates) {
  util::Rng rng(22);
  const auto approx = linear_law_approx(3, rng);
  const VhcUniverse universe({0, 1, 2});
  for (const bool anchor : {true, false}) {
    ShapleyVhcEstimator estimator(universe, approx, anchor);
    const auto vms = mixed_fleet(rng, 8, 3, /*duplicate_states=*/false);
    const double adjusted = 55.0;
    const auto fast = estimator.estimate(vms, adjusted);
    const auto reference =
        reference_estimate(universe, approx, anchor, vms, adjusted);
    for (std::size_t i = 0; i < vms.size(); ++i)
      EXPECT_NEAR(fast[i], reference[i], 1e-9) << "anchor=" << anchor;
  }
}

TEST(ShapleyVhcEstimatorFast, IdleVmsAndCacheReuseAcrossTicks) {
  util::Rng rng(24);
  const auto approx = linear_law_approx(2, rng);
  const VhcUniverse universe({0, 1});
  ShapleyVhcEstimator estimator(universe, approx);
  // Idle VMs of *different* types are still symmetric dummies.
  const std::vector<VmSample> vms = {{0, 0, StateVector::cpu_only(0.8)},
                                     {1, 0, StateVector::zero()},
                                     {2, 1, StateVector::zero()},
                                     {3, 1, StateVector::cpu_only(0.4)}};
  const auto first = estimator.estimate(vms, 25.0);
  const auto again = estimator.estimate(vms, 25.0);
  const auto reference = reference_estimate(universe, approx, true, vms, 25.0);
  for (std::size_t i = 0; i < vms.size(); ++i) {
    EXPECT_EQ(first[i], again[i]) << "cache reuse changed the result, vm " << i;
    EXPECT_NEAR(first[i], reference[i], 1e-9) << "vm " << i;
  }
  // Anchoring pins v(N) to the measurement, so idle VMs absorb an equal slice
  // of the model/measurement gap — the two idle VMs are symmetric despite
  // their different types and must split it exactly.
  EXPECT_EQ(first[1], first[2]);
  EXPECT_NEAR(std::accumulate(first.begin(), first.end(), 0.0), 25.0, 1e-9);

  // Without the anchor, worth never depends on idle players: Dummy axiom.
  ShapleyVhcEstimator unanchored(universe, approx, /*anchor=*/false);
  const auto free_phi = unanchored.estimate(vms, 25.0);
  EXPECT_NEAR(free_phi[1], 0.0, 1e-9);
  EXPECT_NEAR(free_phi[2], 0.0, 1e-9);
}

TEST(ShapleyVhcEstimatorFast, SingleVmEdge) {
  util::Rng rng(25);
  ShapleyVhcEstimator estimator(VhcUniverse({0}), linear_law_approx(1, rng));
  const std::vector<VmSample> one = {{0, 0, StateVector::cpu_only(0.6)}};
  const auto phi = estimator.estimate(one, 12.5);
  ASSERT_EQ(phi.size(), 1u);
  EXPECT_NEAR(phi[0], 12.5, 1e-12);  // anchored grand == the whole power.
}

TEST(ShapleyVhcEstimatorFast, UniverseWiderThanTwelveVhcsMatchesReference) {
  // A 14-VHC approximation fitted on every singleton combo plus the pair
  // {4, 7} only, so most multi-VHC worths take predict()'s disjoint-cover
  // fallback.
  constexpr std::size_t r = 14;
  const VhcComboMask pair = (VhcComboMask{1} << 4) | (VhcComboMask{1} << 7);
  std::vector<VhcComboMask> fitted = {pair};
  for (std::size_t j = 0; j < r; ++j) fitted.push_back(VhcComboMask{1} << j);
  util::Rng rng(29);
  VscTable table(r, 0.01);
  for (const VhcComboMask combo : fitted) {
    for (int s = 0; s < 60; ++s) {
      std::vector<StateVector> states(r);
      double power = 0.0;
      for (std::size_t j = 0; j < r; ++j) {
        if (((combo >> j) & 1u) == 0) continue;
        const double cpu = rng.uniform(0.0, 2.0);
        states[j] = StateVector::cpu_only(cpu);
        power += (2.0 + static_cast<double>(j)) * cpu;
      }
      // The pair contends: it draws less than its members would alone.
      table.record(combo, states, combo == pair ? 0.8 * power : power);
    }
  }
  const VhcLinearApprox approx = VhcLinearApprox::fit(table);

  std::vector<common::VmTypeId> types(r);
  std::iota(types.begin(), types.end(), common::VmTypeId{0});
  const VhcUniverse universe(types);

  // Six VMs over five types, one idle, on non-adjacent VHCs of the 14-VHC
  // universe.
  std::vector<VmSample> vms = {{0, 1, StateVector::cpu_only(0.25)},
                               {1, 4, StateVector::cpu_only(0.5)},
                               {2, 7, StateVector::cpu_only(0.75)},
                               {3, 10, StateVector::cpu_only(1.0)},
                               {4, 13, StateVector::zero()},
                               {5, 4, StateVector::cpu_only(1.25)}};
  for (const bool repeated : {false, true}) {
    // A repeated (type, state) pair makes vm5 symmetric to vm1.
    vms[5].state = StateVector::cpu_only(repeated ? 0.5 : 1.25);
    ShapleyVhcEstimator estimator(universe, approx);
    const auto fast = estimator.estimate(vms, 30.0);
    const auto reference = reference_estimate(universe, approx, true, vms, 30.0);
    for (std::size_t i = 0; i < vms.size(); ++i)
      EXPECT_NEAR(fast[i], reference[i], 1e-9)
          << "repeated=" << repeated << " vm " << i;
  }
}

TEST(ShapleyVhcEstimatorFast, ScratchReuseAcrossHostShapesIsBitIdentical) {
  // One estimator's scratch grows and shrinks across hosts of n = 8 over
  // K = 3 busy VHCs (4 + 2 + 2), n = 64 over K = 4, n = 2 over K = 2, and
  // n = 8 again. Each answer must be the very doubles a fresh estimator
  // gives on that host.
  util::Rng rng(30);
  const auto approx = linear_law_approx(4, rng);
  const VhcUniverse universe({0, 1, 2, 3});
  using Types = std::vector<common::VmTypeId>;
  Types sixty_four(64);
  for (std::size_t i = 0; i < sixty_four.size(); ++i)
    sixty_four[i] = static_cast<common::VmTypeId>(i % 4);
  const Types mixed8 = {0, 0, 0, 0, 1, 1, 2, 2};
  for (const bool anchor : {true, false}) {
    ShapleyVhcEstimator reused(universe, approx, anchor);
    for (const Types& types : {mixed8, sixty_four, Types{0, 3}, mixed8}) {
      std::vector<VmSample> vms;
      for (std::size_t i = 0; i < types.size(); ++i)
        vms.push_back({static_cast<std::uint32_t>(i), types[i],
                       StateVector::cpu_only(rng.uniform(0.05, 1.0))});
      const double adjusted = rng.uniform(10.0, 90.0);
      ShapleyVhcEstimator fresh(universe, approx, anchor);
      const auto expected = fresh.estimate(vms, adjusted);
      const auto phi = reused.estimate(vms, adjusted);
      for (std::size_t i = 0; i < vms.size(); ++i)
        EXPECT_EQ(phi[i], expected[i])
            << types.size() << " VMs, anchor=" << anchor << ", vm " << i;
    }
  }
}

}  // namespace
}  // namespace vmp::core
