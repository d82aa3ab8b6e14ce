#include "baselines/rapl_share.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/vm_config.hpp"

namespace vmp::base {
namespace {

using common::StateVector;
using core::VmSample;

RaplShareEstimator estimator() {
  return RaplShareEstimator(common::paper_vm_catalogue());
}

VmSample sample(std::uint32_t id, unsigned type_index, double util) {
  return {id, common::paper_vm_type(type_index).type_id,
          StateVector::cpu_only(util)};
}

TEST(RaplShare, SplitsByVcpuWeightedUtilization) {
  auto est = estimator();
  // VM1 (1 vCPU) at 1.0 vs VM4 (8 vCPU) at 0.5: weights 1.0 vs 4.0.
  const std::vector<VmSample> vms = {sample(0, 1, 1.0), sample(1, 4, 0.5)};
  const auto phi = est.estimate(vms, 50.0);
  EXPECT_NEAR(phi[0], 10.0, 1e-9);
  EXPECT_NEAR(phi[1], 40.0, 1e-9);
}

TEST(RaplShare, EfficientByConstruction) {
  auto est = estimator();
  const std::vector<VmSample> vms = {sample(0, 1, 0.3), sample(1, 2, 0.9),
                                     sample(2, 3, 0.1)};
  const auto phi = est.estimate(vms, 77.7);
  EXPECT_NEAR(std::accumulate(phi.begin(), phi.end(), 0.0), 77.7, 1e-9);
}

TEST(RaplShare, BlindToTypePowerProfiles) {
  // The baseline's defining flaw: a vCPU-second costs the same regardless of
  // whose it is, although Table IV shows watt-per-vCPU differs per type.
  auto est = estimator();
  const std::vector<VmSample> vms = {sample(0, 1, 1.0), sample(1, 2, 0.5)};
  // VM1: weight 1.0; VM2 (2 vCPU at 0.5): weight 1.0 -> equal shares, even
  // though VM1's watt-per-core exceeds VM2's.
  const auto phi = est.estimate(vms, 24.0);
  EXPECT_NEAR(phi[0], phi[1], 1e-9);
}

TEST(RaplShare, AllIdleSplitsEqually) {
  auto est = estimator();
  const std::vector<VmSample> vms = {sample(0, 1, 0.0), sample(1, 4, 0.0)};
  const auto phi = est.estimate(vms, 2.0);
  EXPECT_DOUBLE_EQ(phi[0], 1.0);
  EXPECT_DOUBLE_EQ(phi[1], 1.0);
}

TEST(RaplShare, Validation) {
  EXPECT_THROW(RaplShareEstimator({}), std::invalid_argument);
  auto est = estimator();
  EXPECT_THROW(est.estimate({}, 1.0), std::invalid_argument);
  const std::vector<VmSample> vms = {sample(0, 1, 0.5)};
  EXPECT_THROW(est.estimate(vms, -1.0), std::invalid_argument);
  EXPECT_THROW(est.estimate(vms, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(est.estimate(vms, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  const std::vector<VmSample> unknown = {
      {0, 999, StateVector::cpu_only(0.5)}};
  EXPECT_THROW(est.estimate(unknown, 1.0), std::out_of_range);
}

TEST(RaplShare, Name) { EXPECT_EQ(estimator().name(), "rapl-proportional"); }

}  // namespace
}  // namespace vmp::base
