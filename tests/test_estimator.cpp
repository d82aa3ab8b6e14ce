#include "core/estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/vm_config.hpp"
#include "util/rng.hpp"

namespace vmp::core {
namespace {

using common::StateVector;

sim::MachineSpec quiet_spec() {
  sim::MachineSpec spec = sim::xeon_prototype();
  spec.affinity_jitter = 0.0;
  return spec;
}

// Builds an approximation trained on the exact single-VHC linear law
// power = w * aggregated cpu.
VhcLinearApprox exact_linear_approx(double w_cpu) {
  VscTable table(1, 0.01);
  util::Rng rng(1);
  for (int k = 0; k < 200; ++k) {
    const double cpu = rng.uniform(0.0, 2.0);
    table.record(0b1, {{StateVector::cpu_only(cpu)}}, w_cpu * cpu);
  }
  return VhcLinearApprox::fit(table);
}

std::vector<VmSample> two_identical_vms(double u0, double u1) {
  return {{0, 0, StateVector::cpu_only(u0)}, {1, 0, StateVector::cpu_only(u1)}};
}

TEST(ShapleyVhcEstimator, SplitsEquallyForSymmetricVms) {
  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(10.0));
  const auto phi = estimator.estimate(two_identical_vms(1.0, 1.0), 20.0);
  EXPECT_NEAR(phi[0], 10.0, 0.05);
  EXPECT_NEAR(phi[1], 10.0, 0.05);
}

TEST(ShapleyVhcEstimator, AnchoredEfficiencyExact) {
  // Even with a deliberately wrong approximation, anchoring the grand
  // coalition to the measurement keeps Σ Φ = P (the paper's Sec. VII-C note).
  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(5.0));
  const double measured = 21.7;
  const auto phi = estimator.estimate(two_identical_vms(1.0, 0.6), measured);
  EXPECT_NEAR(std::accumulate(phi.begin(), phi.end(), 0.0), measured, 1e-9);
}

TEST(ShapleyVhcEstimator, UnanchoredSumsToApproximation) {
  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(10.0),
                                /*anchor=*/false);
  const auto phi = estimator.estimate(two_identical_vms(1.0, 0.5), 999.0);
  // v(N) by the linear approximation = 10 * (1.0 + 0.5) = 15, not 999.
  EXPECT_NEAR(std::accumulate(phi.begin(), phi.end(), 0.0), 15.0, 0.1);
}

TEST(ShapleyVhcEstimator, HigherUtilizationGetsLargerShare) {
  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(10.0));
  const auto phi = estimator.estimate(two_identical_vms(0.9, 0.3), 12.0);
  EXPECT_GT(phi[0], phi[1]);
  EXPECT_NEAR(phi[0] + phi[1], 12.0, 1e-9);
}

TEST(ShapleyVhcEstimator, IdleVmGetsNothing) {
  // Dummy axiom through the full pipeline: a zero-state VM must get ~0 W.
  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(10.0));
  const auto phi = estimator.estimate(two_identical_vms(1.0, 0.0), 10.0);
  EXPECT_NEAR(phi[1], 0.0, 0.05);
  EXPECT_NEAR(phi[0], 10.0, 0.05);
}

TEST(ShapleyVhcEstimator, InputValidation) {
  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(10.0));
  EXPECT_THROW(estimator.estimate({}, 10.0), std::invalid_argument);
  EXPECT_THROW(estimator.estimate(two_identical_vms(1.0, 1.0), -1.0),
               std::invalid_argument);
  // Non-finite measured power would be billed as NaN/inf shares.
  EXPECT_THROW(estimator.estimate(two_identical_vms(1.0, 1.0),
                                  std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(estimator.estimate(two_identical_vms(1.0, 1.0),
                                  std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // Unknown type id.
  const std::vector<VmSample> unknown = {{0, 42, StateVector::cpu_only(1.0)}};
  EXPECT_THROW(estimator.estimate(unknown, 5.0), std::out_of_range);
}

TEST(ShapleyVhcEstimator, UniverseMismatchRejected) {
  EXPECT_THROW(
      ShapleyVhcEstimator(VhcUniverse({0, 1}), exact_linear_approx(10.0)),
      std::invalid_argument);
}

TEST(OracleShapleyEstimator, MatchesPaperTwoVmNumbers) {
  sim::MachineSpec spec = quiet_spec();
  spec.pack_affinity = 1.0;
  spec.llc_contention_w = 0.0;
  const sim::CoalitionProbe probe(spec,
                                  {common::demo_c_vm(), common::demo_c_vm()});
  OracleShapleyEstimator estimator(probe);
  const auto phi = estimator.estimate(two_identical_vms(1.0, 1.0), 0.0);
  // v1 = 13.15, v12 = 13.15 * (2 - 0.4615) => phi = v12 / 2 each.
  const double expected = 13.15 * (2.0 - spec.smt_contention) / 2.0;
  EXPECT_NEAR(phi[0], expected, 1e-9);
  EXPECT_NEAR(phi[1], expected, 1e-9);
}

TEST(OracleShapleyEstimator, AnchoringOverridesGrandWorth) {
  const sim::CoalitionProbe probe(quiet_spec(),
                                  {common::demo_c_vm(), common::demo_c_vm()});
  OracleShapleyEstimator anchored(probe, /*anchor=*/true);
  const double measured = 30.0;
  const auto phi = anchored.estimate(two_identical_vms(1.0, 1.0), measured);
  EXPECT_NEAR(phi[0] + phi[1], measured, 1e-9);
}

TEST(OracleShapleyEstimator, FleetMismatchRejected) {
  const sim::CoalitionProbe probe(quiet_spec(), {common::demo_c_vm()});
  OracleShapleyEstimator estimator(probe);
  EXPECT_THROW(estimator.estimate(two_identical_vms(1.0, 1.0), 0.0),
               std::invalid_argument);
  const std::vector<VmSample> wrong_type = {
      {0, 99, StateVector::cpu_only(1.0)}};
  EXPECT_THROW(estimator.estimate(wrong_type, 0.0), std::invalid_argument);
}

// --- The estimator against brute force ---------------------------------------

/// Every combo of r VHCs covered: each singleton fitted to its own weights,
/// and each larger combo fitted too unless `sparse` drops it at random, so
/// predict() also takes its disjoint-cover fallback.
VhcLinearApprox random_approx(std::size_t r, bool sparse, util::Rng& rng) {
  std::vector<VhcLinearApprox::ComboModelData> models;
  for (VhcComboMask combo = 1; combo < (VhcComboMask{1} << r); ++combo) {
    if (sparse && std::popcount(combo) > 1 && rng.bernoulli(0.5)) continue;
    VhcLinearApprox::ComboModelData model{
        combo, std::vector<double>(r * common::kNumComponents, 0.0), 0.0, 50};
    for (std::size_t j = 0; j < r; ++j)
      if (((combo >> j) & 1u) != 0)
        for (std::size_t c = 0; c < common::kNumComponents; ++c)
          model.weights[j * common::kNumComponents + c] =
              rng.uniform(1.0, 20.0);
    models.push_back(std::move(model));
  }
  return VhcLinearApprox::from_models(r, models);
}

/// A SPEC-like state: CPU plus the memory and disk load SPEC profiles carry.
StateVector spec_like_state(util::Rng& rng) {
  StateVector state = StateVector::cpu_only(rng.uniform(0.05, 1.0));
  state[common::Component::kMemory] = rng.uniform(0.08, 0.42);
  state[common::Component::kDiskIo] = 0.01;
  return state;
}

/// Busy members of a coalition added into per-VHC aggregates; returns the
/// combo.
VhcComboMask aggregate_of(const VhcUniverse& universe,
                          std::span<const VmSample> vms, Coalition s,
                          std::vector<StateVector>& agg) {
  std::fill(agg.begin(), agg.end(), StateVector::zero());
  VhcComboMask combo = 0;
  for (const Player i : s.members()) {
    if (vms[i].state == StateVector::zero()) continue;
    const std::size_t vhc = universe.index_of(vms[i].type);
    combo |= VhcComboMask{1} << vhc;
    agg[vhc] += vms[i].state;
  }
  return combo;
}

TEST(ShapleyVhcEstimator, EstimateEqualsBruteForceOnRandomHosts) {
  // Shapley by brute force over the estimator's game: v(S, C) is the
  // regression's worth of the coalition's busy members, and v(N) the
  // measurement when anchored. Hosts of 1 to 14 VMs over three types, with
  // repeated (type, state) pairs and idle VMs.
  const VhcUniverse universe({0, 1, 2});
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const VhcLinearApprox approx = random_approx(3, seed % 2 == 0, rng);
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 14));
    std::vector<VmSample> vms;
    for (std::size_t i = 0; i < n; ++i) {
      VmSample vm{static_cast<std::uint32_t>(i),
                  static_cast<common::VmTypeId>(rng.uniform_u64(3)),
                  spec_like_state(rng)};
      if (i > 0 && rng.bernoulli(0.3)) {
        vm.type = vms.back().type;
        vm.state = vms.back().state;
      }
      if (rng.bernoulli(0.15)) vm.state = StateVector::zero();
      vms.push_back(vm);
    }

    for (const bool anchor : {true, false}) {
      const double measured = rng.uniform(10.0, 90.0);
      std::vector<StateVector> agg(3);
      const WorthFn v = [&](Coalition s) {
        if (anchor && s == Coalition::grand(n)) return measured;
        const VhcComboMask combo = aggregate_of(universe, vms, s, agg);
        return combo == 0 ? 0.0 : approx.predict(combo, agg);
      };
      const auto reference = shapley_values(n, v);

      ShapleyVhcEstimator estimator(universe, approx, anchor);
      const auto phi = estimator.estimate(vms, measured);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(phi[i], reference[i], 1e-9)
            << "seed " << seed << " anchor=" << anchor << " vm " << i;
    }
  }
}

TEST(Estimators, NamesAreStable) {
  ShapleyVhcEstimator vhc(VhcUniverse({0}), exact_linear_approx(1.0));
  EXPECT_EQ(vhc.name(), "shapley-vhc");
  const sim::CoalitionProbe probe(quiet_spec(), {common::demo_c_vm()});
  OracleShapleyEstimator oracle(probe);
  EXPECT_EQ(oracle.name(), "shapley-oracle");
}

}  // namespace
}  // namespace vmp::core
