#include "sim/hypervisor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "common/vm_config.hpp"
#include "workload/primitives.hpp"
#include "workload/synthetic.hpp"

namespace vmp::sim {
namespace {

MachineSpec quiet_xeon() {
  MachineSpec spec = xeon_prototype();
  spec.affinity_jitter = 0.0;
  return spec;
}

wl::WorkloadPtr constant_cpu(double util) {
  return std::make_unique<wl::ConstantWorkload>(
      common::StateVector::cpu_only(util));
}

TEST(Hypervisor, StartsIdleAtIdlePower) {
  Hypervisor hv(quiet_xeon());
  EXPECT_DOUBLE_EQ(hv.current_power().total(), hv.spec().idle_power_w);
  EXPECT_EQ(hv.vm_count(), 0u);
  EXPECT_DOUBLE_EQ(hv.now(), 0.0);
}

TEST(Hypervisor, CreateAssignsDenseIds) {
  Hypervisor hv(quiet_xeon());
  EXPECT_EQ(hv.create_vm(common::demo_c_vm(), constant_cpu(0.5)), 0u);
  EXPECT_EQ(hv.create_vm(common::demo_c_vm(), constant_cpu(0.5)), 1u);
  EXPECT_EQ(hv.vm_count(), 2u);
  EXPECT_EQ(hv.vm(0).state(), VmState::kStopped);
  EXPECT_THROW(hv.vm(9), std::out_of_range);
}

TEST(Hypervisor, StoppedVmAddsNoPowerDummyAxiom) {
  Hypervisor hv(quiet_xeon());
  const VmId id = hv.create_vm(common::demo_c_vm(), constant_cpu(1.0));
  hv.tick(1.0);
  EXPECT_DOUBLE_EQ(hv.current_power().adjusted(), 0.0);
  // An idle (stopped) VM contributes nothing — the paper's Remark 1.
  (void)id;
  EXPECT_TRUE(hv.observations().empty());
}

TEST(Hypervisor, StartRaisesPowerStopRestoresIt) {
  Hypervisor hv(quiet_xeon());
  const VmId id = hv.create_vm(common::demo_c_vm(), constant_cpu(1.0));
  hv.start_vm(id);
  hv.tick(1.0);
  const double active = hv.current_power().adjusted();
  EXPECT_GT(active, 10.0);
  hv.stop_vm(id);
  hv.tick(1.0);
  EXPECT_DOUBLE_EQ(hv.current_power().adjusted(), 0.0);
}

TEST(Hypervisor, NoOvercommit) {
  Hypervisor hv(quiet_xeon());  // 16 logical CPUs
  const auto big = common::paper_vm_type(4);  // 8 vCPUs
  const VmId a = hv.create_vm(big, constant_cpu(0.5));
  const VmId b = hv.create_vm(big, constant_cpu(0.5));
  const VmId c = hv.create_vm(common::demo_c_vm(), constant_cpu(0.5));
  hv.start_vm(a);
  hv.start_vm(b);
  EXPECT_EQ(hv.running_vcpus(), 16u);
  EXPECT_THROW(hv.start_vm(c), std::runtime_error);
  hv.stop_vm(a);
  EXPECT_NO_THROW(hv.start_vm(c));
}

TEST(Hypervisor, StartIsIdempotent) {
  Hypervisor hv(quiet_xeon());
  const VmId id = hv.create_vm(common::demo_c_vm(), constant_cpu(0.5));
  hv.start_vm(id);
  hv.start_vm(id);  // no-op, must not double-count vCPUs
  EXPECT_EQ(hv.running_vcpus(), 1u);
}

TEST(Hypervisor, TickAdvancesClockAndStates) {
  Hypervisor hv(quiet_xeon());
  const VmId id = hv.create_vm(
      common::demo_c_vm(),
      std::make_unique<wl::RampWorkload>(0.0, 1.0, 10.0));
  hv.start_vm(id);
  hv.tick(5.0);
  EXPECT_DOUBLE_EQ(hv.now(), 5.0);
  EXPECT_NEAR(hv.vm(id).observed_state().cpu(), 0.5, 1e-12);
  EXPECT_THROW(hv.tick(0.0), std::invalid_argument);
  EXPECT_THROW(hv.tick(-1.0), std::invalid_argument);
}

TEST(Hypervisor, WorkloadTimeIsRelativeToStart) {
  Hypervisor hv(quiet_xeon());
  const VmId id = hv.create_vm(
      common::demo_c_vm(), std::make_unique<wl::RampWorkload>(0.0, 1.0, 10.0));
  hv.tick(100.0);  // VM still stopped; its workload clock must not run
  hv.start_vm(id);
  hv.tick(5.0);
  EXPECT_NEAR(hv.vm(id).observed_state().cpu(), 0.5, 1e-12);
}

TEST(Hypervisor, ObservationsCoverRunningVmsInIdOrder) {
  Hypervisor hv(quiet_xeon());
  const VmId a = hv.create_vm(common::demo_c_vm(), constant_cpu(0.25));
  const VmId b = hv.create_vm(common::paper_vm_type(2), constant_cpu(0.75));
  hv.start_vm(a);
  hv.start_vm(b);
  hv.tick(1.0);
  const auto obs = hv.observations();
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs[0].vm_id, a);
  EXPECT_DOUBLE_EQ(obs[0].state.cpu(), 0.25);
  EXPECT_EQ(obs[1].vm_id, b);
  EXPECT_EQ(obs[1].type, common::paper_vm_type(2).type_id);
}

TEST(Hypervisor, BindWorkloadTakesEffect) {
  Hypervisor hv(quiet_xeon());
  const VmId id = hv.create_vm(common::demo_c_vm(), constant_cpu(0.2));
  hv.start_vm(id);
  hv.tick(1.0);
  EXPECT_DOUBLE_EQ(hv.vm(id).observed_state().cpu(), 0.2);
  hv.bind_workload(id, constant_cpu(0.9));
  EXPECT_DOUBLE_EQ(hv.vm(id).observed_state().cpu(), 0.9);
  EXPECT_THROW(hv.bind_workload(42, constant_cpu(0.1)), std::out_of_range);
}

TEST(Hypervisor, PackFractionStaysInUnitInterval) {
  MachineSpec spec = xeon_prototype();
  spec.affinity_jitter = 0.5;  // large jitter to stress the clamp
  Hypervisor hv(spec, /*seed=*/3);
  const VmId id = hv.create_vm(common::demo_c_vm(), constant_cpu(1.0));
  hv.start_vm(id);
  for (int i = 0; i < 200; ++i) {
    hv.tick(1.0);
    ASSERT_GE(hv.current_pack_fraction(), 0.0);
    ASSERT_LE(hv.current_pack_fraction(), 1.0);
  }
}

TEST(Hypervisor, PowerFluctuatesAroundExpectedValue) {
  Hypervisor hv(quiet_xeon());  // jitter 0 => power deterministic
  const VmId a = hv.create_vm(common::demo_c_vm(), constant_cpu(1.0));
  const VmId b = hv.create_vm(common::demo_c_vm(), constant_cpu(1.0));
  hv.start_vm(a);
  hv.start_vm(b);
  hv.tick(1.0);
  const double p1 = hv.current_power().adjusted();
  hv.tick(1.0);
  EXPECT_DOUBLE_EQ(hv.current_power().adjusted(), p1);
}

TEST(Hypervisor, CreateRejectsNullWorkload) {
  Hypervisor hv(quiet_xeon());
  EXPECT_THROW(hv.create_vm(common::demo_c_vm(), nullptr),
               std::invalid_argument);
}

TEST(Vm, StateNames) {
  EXPECT_STREQ(to_string(VmState::kRunning), "running");
  EXPECT_STREQ(to_string(VmState::kStopped), "stopped");
}

}  // namespace
}  // namespace vmp::sim
