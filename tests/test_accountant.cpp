#include "core/accountant.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vmp::core {
namespace {

using common::StateVector;
using common::VmSample;

std::vector<VmSample> two_vms() {
  return {{10, 0, StateVector::cpu_only(1.0)},
          {20, 0, StateVector::cpu_only(0.5)}};
}

TEST(EnergyAccountant, AccumulatesDynamicEnergy) {
  EnergyAccountant acc(IdleAttribution::kNone);
  const std::vector<double> phi = {10.0, 5.0};
  acc.add_sample(two_vms(), phi, 138.0, 1.0);
  acc.add_sample(two_vms(), phi, 138.0, 1.0);
  EXPECT_DOUBLE_EQ(acc.energy_j(10), 20.0);
  EXPECT_DOUBLE_EQ(acc.energy_j(20), 10.0);
  EXPECT_DOUBLE_EQ(acc.total_energy_j(), 30.0);
  EXPECT_DOUBLE_EQ(acc.accounted_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(acc.energy_j(99), 0.0);  // unseen id
}

TEST(EnergyAccountant, EqualShareIdleAttribution) {
  EnergyAccountant acc(IdleAttribution::kEqualShare);
  acc.add_sample(two_vms(), std::vector<double>{10.0, 5.0}, 138.0, 1.0);
  EXPECT_DOUBLE_EQ(acc.energy_j(10), 10.0 + 69.0);
  EXPECT_DOUBLE_EQ(acc.energy_j(20), 5.0 + 69.0);
}

TEST(EnergyAccountant, ProportionalIdleAttribution) {
  EnergyAccountant acc(IdleAttribution::kProportional);
  acc.add_sample(two_vms(), std::vector<double>{10.0, 5.0}, 30.0, 1.0);
  EXPECT_DOUBLE_EQ(acc.energy_j(10), 10.0 + 20.0);
  EXPECT_DOUBLE_EQ(acc.energy_j(20), 5.0 + 10.0);
}

TEST(EnergyAccountant, ProportionalDegeneratesToEqualWhenAllIdle) {
  EnergyAccountant acc(IdleAttribution::kProportional);
  acc.add_sample(two_vms(), std::vector<double>{0.0, 0.0}, 10.0, 1.0);
  EXPECT_DOUBLE_EQ(acc.energy_j(10), 5.0);
  EXPECT_DOUBLE_EQ(acc.energy_j(20), 5.0);
}

TEST(EnergyAccountant, IdlePoliciesConserveTotalEnergy) {
  for (IdleAttribution policy :
       {IdleAttribution::kEqualShare, IdleAttribution::kProportional}) {
    EnergyAccountant acc(policy);
    acc.add_sample(two_vms(), std::vector<double>{12.0, 8.0}, 138.0, 1.0);
    EXPECT_NEAR(acc.total_energy_j(), 12.0 + 8.0 + 138.0, 1e-9)
        << to_string(policy);
  }
}

TEST(EnergyAccountant, BillAtTariff) {
  EnergyAccountant acc(IdleAttribution::kNone);
  // 1 kWh = 3.6e6 J at 100 W for 36000 s.
  const std::vector<VmSample> one = {{1, 0, StateVector::cpu_only(1.0)}};
  acc.add_sample(one, std::vector<double>{100.0}, 0.0, 36000.0);
  EXPECT_NEAR(acc.bill_usd(1, 0.10), 0.10, 1e-9);
}

TEST(EnergyAccountant, VmIdsSorted) {
  EnergyAccountant acc;
  acc.add_sample(two_vms(), std::vector<double>{1.0, 1.0}, 0.0, 1.0);
  const auto ids = acc.vm_ids();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], 10u);
  EXPECT_EQ(ids[1], 20u);
}

TEST(EnergyAccountant, Validation) {
  EnergyAccountant acc;
  const std::vector<double> wrong = {1.0};
  EXPECT_THROW(acc.add_sample(two_vms(), wrong, 0.0, 1.0),
               std::invalid_argument);
  const std::vector<double> phi = {1.0, 1.0};
  EXPECT_THROW(acc.add_sample(two_vms(), phi, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(acc.add_sample(two_vms(), phi, -1.0, 1.0),
               std::invalid_argument);
}

TEST(IdleAttribution, Names) {
  EXPECT_STREQ(to_string(IdleAttribution::kNone), "none");
  EXPECT_STREQ(to_string(IdleAttribution::kEqualShare), "equal-share");
  EXPECT_STREQ(to_string(IdleAttribution::kProportional), "proportional");
}

}  // namespace
}  // namespace vmp::core
