#include "core/estimator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>

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

TEST(Estimators, NamesAreStable) {
  ShapleyVhcEstimator vhc(VhcUniverse({0}), exact_linear_approx(1.0));
  EXPECT_EQ(vhc.name(), "shapley-vhc");
  const sim::CoalitionProbe probe(quiet_spec(), {common::demo_c_vm()});
  OracleShapleyEstimator oracle(probe);
  EXPECT_EQ(oracle.name(), "shapley-oracle");
}

}  // namespace
}  // namespace vmp::core
