#include "core/capping.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vmp::core {
namespace {

using common::StateVector;
using common::VmSample;

std::vector<VmSample> one_vm(std::uint32_t id = 1) {
  return {{id, 0, StateVector::cpu_only(1.0)}};
}

TEST(CapPolicy, Validation) {
  CapPolicy ok{.cap_w = 50.0};
  EXPECT_NO_THROW(ok.validate());
  CapPolicy bad = ok;
  bad.cap_w = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.decrease_factor = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.increase_step = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.comfort_margin = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.min_throttle = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(PowerCapController, UncappedVmIsUntouched) {
  PowerCapController controller;
  EXPECT_FALSE(controller.has_cap(1));
  EXPECT_DOUBLE_EQ(controller.throttle(1), 1.0);
  controller.observe(one_vm(1), std::vector<double>{1000.0});
  EXPECT_DOUBLE_EQ(controller.throttle(1), 1.0);
  EXPECT_EQ(controller.violations(1), 0u);
}

TEST(PowerCapController, ViolationTriggersMultiplicativeDecrease) {
  PowerCapController controller;
  controller.set_cap(1, CapPolicy{.cap_w = 50.0, .decrease_factor = 0.8});
  controller.observe(one_vm(1), std::vector<double>{60.0});
  EXPECT_DOUBLE_EQ(controller.throttle(1), 0.8);
  controller.observe(one_vm(1), std::vector<double>{60.0});
  EXPECT_DOUBLE_EQ(controller.throttle(1), 0.64);
  EXPECT_EQ(controller.violations(1), 2u);
}

TEST(PowerCapController, ThrottleNeverBelowFloor) {
  PowerCapController controller;
  controller.set_cap(1, CapPolicy{.cap_w = 10.0, .decrease_factor = 0.5,
                                  .min_throttle = 0.2});
  for (int i = 0; i < 20; ++i)
    controller.observe(one_vm(1), std::vector<double>{100.0});
  EXPECT_DOUBLE_EQ(controller.throttle(1), 0.2);
}

TEST(PowerCapController, AdditiveRecoveryWhenComfortablyUnder) {
  PowerCapController controller;
  controller.set_cap(1, CapPolicy{.cap_w = 50.0, .decrease_factor = 0.5,
                                  .increase_step = 0.05,
                                  .comfort_margin = 0.1});
  controller.observe(one_vm(1), std::vector<double>{60.0});  // -> 0.5
  controller.observe(one_vm(1), std::vector<double>{30.0});  // under 45 -> +0.05
  EXPECT_DOUBLE_EQ(controller.throttle(1), 0.55);
  // In the dead band (between 45 and 50): hold.
  controller.observe(one_vm(1), std::vector<double>{47.0});
  EXPECT_DOUBLE_EQ(controller.throttle(1), 0.55);
}

TEST(PowerCapController, ThrottleCappedAtOne) {
  PowerCapController controller;
  controller.set_cap(1, CapPolicy{.cap_w = 50.0, .increase_step = 0.5});
  for (int i = 0; i < 10; ++i)
    controller.observe(one_vm(1), std::vector<double>{1.0});
  EXPECT_DOUBLE_EQ(controller.throttle(1), 1.0);
}

TEST(PowerCapController, MultipleVmsIndependent) {
  PowerCapController controller;
  controller.set_cap(1, CapPolicy{.cap_w = 50.0});
  controller.set_cap(2, CapPolicy{.cap_w = 50.0});
  const std::vector<VmSample> vms = {{1, 0, StateVector::cpu_only(1.0)},
                                     {2, 0, StateVector::cpu_only(1.0)}};
  controller.observe(vms, std::vector<double>{60.0, 10.0});
  EXPECT_LT(controller.throttle(1), 1.0);
  EXPECT_DOUBLE_EQ(controller.throttle(2), 1.0);
}

TEST(PowerCapController, DuplicateCapRejected) {
  PowerCapController controller;
  controller.set_cap(1, CapPolicy{.cap_w = 50.0});
  EXPECT_THROW(controller.set_cap(1, CapPolicy{.cap_w = 60.0}),
               std::invalid_argument);
}

TEST(PowerCapController, ObserveValidation) {
  PowerCapController controller;
  const std::vector<double> wrong = {1.0, 2.0};
  EXPECT_THROW(controller.observe(one_vm(1), wrong), std::invalid_argument);
}

}  // namespace
}  // namespace vmp::core
