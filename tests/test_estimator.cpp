#include "core/estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(ShapleyVhcEstimator, TableLookupFirstUsesMeasuredWorths) {
  // Fig. 8's online path: if the (quantized) state was measured offline, the
  // table answer overrides the regression. We plant a table entry that
  // contradicts the linear model and check it wins.
  VscTable table(1, 0.01);
  table.record(0b1, {{StateVector::cpu_only(1.0)}}, 999.0);
  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(10.0),
                                std::move(table), /*anchor=*/false);
  const std::vector<VmSample> one = {{0, 0, StateVector::cpu_only(1.0)}};
  const auto phi = estimator.estimate(one, 0.0);
  EXPECT_NEAR(phi[0], 999.0, 1e-9);
  EXPECT_DOUBLE_EQ(estimator.table_hit_rate(), 1.0);
}

TEST(ShapleyVhcEstimator, TableMissFallsBackToRegression) {
  VscTable table(1, 0.01);
  table.record(0b1, {{StateVector::cpu_only(0.2)}}, 2.0);
  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(10.0),
                                std::move(table), /*anchor=*/false);
  const std::vector<VmSample> one = {{0, 0, StateVector::cpu_only(0.9)}};
  const auto phi = estimator.estimate(one, 0.0);
  EXPECT_NEAR(phi[0], 9.0, 0.1);  // regression answer
  EXPECT_DOUBLE_EQ(estimator.table_hit_rate(), 0.0);
}

TEST(ShapleyVhcEstimator, TableVhcCountMustMatchUniverse) {
  VscTable table(2, 0.01);
  table.record(0b01, {{StateVector::cpu_only(1.0), StateVector::zero()}}, 1.0);
  EXPECT_THROW(ShapleyVhcEstimator(VhcUniverse({0}), exact_linear_approx(10.0),
                                   std::move(table)),
               std::invalid_argument);
}

// --- Lookups the table-backed sweep skips ------------------------------------

/// Every combo of r VHCs fitted to its own weights, so the estimator's
/// cached weights are the fitted ones and predict() adds the same products.
VhcLinearApprox every_combo_fitted(std::size_t r, util::Rng& rng) {
  std::vector<VhcLinearApprox::ComboModelData> models;
  for (VhcComboMask combo = 1; combo < (VhcComboMask{1} << r); ++combo) {
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

/// A CPU-only training table over r VHCs: no per-VHC aggregate that carries
/// memory is ever in it.
VscTable cpu_only_table(std::size_t r, util::Rng& rng) {
  VscTable table(r, 0.01);
  for (VhcComboMask combo = 1; combo < (VhcComboMask{1} << r); ++combo)
    for (int s = 0; s < 40; ++s) {
      std::vector<StateVector> states(r);
      for (std::size_t j = 0; j < r; ++j)
        if (((combo >> j) & 1u) != 0)
          states[j] = StateVector::cpu_only(rng.uniform(0.0, 2.0));
      table.record(combo, states, rng.uniform(5.0, 60.0));
    }
  return table;
}

StateVector spec_like_state(util::Rng& rng) {
  StateVector state = StateVector::cpu_only(rng.uniform(0.05, 1.0));
  state[common::Component::kMemory] = rng.uniform(0.08, 0.42);
  state[common::Component::kDiskIo] = 0.01;
  return state;
}

/// Busy members of a coalition added into per-VHC aggregates from zero in
/// player order; returns the combo.
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

TEST(ShapleyVhcEstimator, SweepEqualsLookupOrPredictReference) {
  // Fig. 8 per mask, by brute force: the table's answer when it has the
  // coalition's cell, else the regression's. Cells are planted at the exact
  // aggregates of some of the tick's coalitions: of one coalition, so each
  // VHC of its combo has a single member subset in the table, or of a tenth
  // of those without one VHC, which then has no subset there and whose
  // coalitions need no lookup. The sweep must return the same doubles and count the
  // same hits, whichever lookups it spares.
  const VhcUniverse universe({0, 1, 2});
  std::size_t total_hits = 0;
  std::size_t spared = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed);
    const VhcLinearApprox approx = every_combo_fitted(3, rng);
    const auto n = static_cast<std::size_t>(rng.uniform_int(3, 9));
    std::vector<VmSample> vms;
    for (std::size_t i = 0; i < n; ++i) {
      vms.push_back({static_cast<std::uint32_t>(i),
                     static_cast<common::VmTypeId>(rng.uniform_u64(3)),
                     spec_like_state(rng)});
      if (rng.bernoulli(0.15)) vms.back().state = StateVector::zero();
    }
    VscTable table = cpu_only_table(3, rng);
    std::vector<StateVector> agg(3);
    const bool one_coalition = seed % 2 == 0;
    const VhcComboMask unplanted = VhcComboMask{1} << (seed / 2 % 3);
    const std::size_t one_mask =
        1 + rng.uniform_u64((std::uint64_t{1} << n) - 1);
    for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
      const VhcComboMask combo = aggregate_of(
          universe, vms, Coalition{static_cast<Coalition::Mask>(mask)}, agg);
      if (combo == 0) continue;
      if (one_coalition ? mask != one_mask
                        : (combo & unplanted) != 0 || !rng.bernoulli(0.1))
        continue;
      table.record(combo, agg, rng.uniform(1.0, 80.0));
    }

    for (const bool anchor : {true, false}) {
      const double measured = rng.uniform(10.0, 90.0);
      std::size_t hits = 0;
      std::size_t queries = 0;
      const WorthFn v = [&](Coalition s) {
        if (s.is_empty()) return 0.0;
        if (anchor && s == Coalition::grand(n)) return measured;
        const VhcComboMask combo = aggregate_of(universe, vms, s, agg);
        if (combo == 0) return 0.0;
        ++queries;
        if (const auto hit = table.lookup(combo, agg)) {
          ++hits;
          return *hit;
        }
        return approx.predict(combo, agg);
      };
      const auto reference = shapley_values(n, v);

      ShapleyVhcEstimator estimator(universe, approx, table, anchor);
      estimator.set_kernel(ShapleyKernel::kSweep);
      const auto phi = estimator.estimate(vms, measured);
      const std::string label =
          "seed " + std::to_string(seed) + " anchor=" + std::to_string(anchor);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(phi[i], reference[i]) << label << " vm " << i;
      EXPECT_EQ(estimator.worth_queries(), queries) << label;
      EXPECT_EQ(estimator.table_hit_rate(),
                static_cast<double>(hits) / static_cast<double>(queries))
          << label;
      EXPECT_GE(estimator.table_probes(), hits) << label;
      total_hits += hits;
      spared += queries - estimator.table_probes();
    }
  }
  EXPECT_GT(total_hits, 100u);
  EXPECT_GT(spared, 1000u);
}

TEST(ShapleyVhcEstimator, TableProbesSkipCoalitionsThatCannotHit) {
  // Memory-bearing states that no CPU-only training cell holds: the
  // Σ_v (2^{m_v} - 1) subset checks rule out every queried coalition, and
  // none needs a lookup. tick-mixed8's shape (4 + 2 + 2 VMs, 21 checks for
  // 254 coalitions), one type (255 checks for 254) and a 2-VM host (2 for
  // 2), anchored or not.
  util::Rng rng(8);
  const VhcUniverse universe({0, 1, 2});
  const VscTable table = cpu_only_table(3, rng);
  const VhcLinearApprox approx = VhcLinearApprox::fit(table);
  using Types = std::vector<common::VmTypeId>;
  for (const Types& types :
       {Types{0, 0, 0, 0, 1, 1, 2, 2}, Types(8, 0), Types{0, 1}})
    for (const bool anchor : {true, false}) {
      ShapleyVhcEstimator estimator(universe, approx, table, anchor);
      const std::size_t queried =
          (std::size_t{1} << types.size()) - (anchor ? 2 : 1);
      for (std::size_t tick = 1; tick <= 3; ++tick) {
        std::vector<VmSample> vms;
        for (std::size_t i = 0; i < types.size(); ++i)
          vms.push_back(
              {static_cast<std::uint32_t>(i), types[i], spec_like_state(rng)});
        (void)estimator.estimate(vms, 60.0);
        EXPECT_EQ(estimator.last_kernel(), "sweep");
        EXPECT_EQ(estimator.worth_queries(), queried * tick);
        EXPECT_EQ(estimator.table_probes(), 0u)
            << types.size() << " VMs, anchor=" << anchor;
      }
      EXPECT_EQ(estimator.table_hit_rate(), 0.0);
    }
}

TEST(ShapleyVhcEstimator, MemberSubsetsAddInPlayerOrder) {
  // Three VMs of one type whose CPU sum falls in bucket 148 when added in
  // player order, (0.337 + 0.531) + 0.607 = 1.475, and in bucket 147 when
  // added the other way round. The one cell is the grand coalition's, so
  // its VHC may hit only if the subset checks add in the mask loop's order.
  const VhcUniverse universe({0});
  std::vector<VmSample> vms;
  for (const double cpu : {0.337, 0.531, 0.607})
    vms.push_back({static_cast<std::uint32_t>(vms.size()), 0,
                   StateVector::cpu_only(cpu)});
  VscTable table(1, 0.01);
  table.record(0b1, std::vector<StateVector>{StateVector::cpu_only(
                        (0.337 + 0.531) + 0.607)},
               99.0);
  ASSERT_FALSE(
      table.may_hold(0, StateVector::cpu_only((0.607 + 0.531) + 0.337)));
  util::Rng rng(3);
  ShapleyVhcEstimator estimator(universe, every_combo_fitted(1, rng), table,
                                /*anchor=*/false);
  (void)estimator.estimate(vms, 0.0);
  EXPECT_EQ(estimator.last_kernel(), "sweep");
  EXPECT_EQ(estimator.worth_queries(), 7u);
  EXPECT_EQ(estimator.table_probes(), 7u);
  EXPECT_EQ(estimator.table_hit_rate(), 1.0 / 7.0);
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
