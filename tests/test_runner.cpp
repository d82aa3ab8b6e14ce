#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/vm_config.hpp"
#include "sim/rapl.hpp"
#include "workload/primitives.hpp"

namespace vmp::sim {
namespace {

MachineSpec quiet_xeon() {
  MachineSpec spec = xeon_prototype();
  spec.meter_noise_sigma_w = 0.0;
  spec.meter_quantum_w = 0.0;
  spec.affinity_jitter = 0.0;
  return spec;
}

TEST(Runner, ProducesAlignedSeries) {
  PhysicalMachine machine(quiet_xeon(), 1);
  const VmId id = machine.hypervisor().create_vm(
      common::demo_c_vm(), std::make_unique<wl::ConstantWorkload>(
                               common::StateVector::cpu_only(0.5)));
  machine.hypervisor().start_vm(id);
  const ScenarioTrace trace = run_scenario(machine, 10.0, 1.0);
  EXPECT_EQ(trace.size(), 10u);
  EXPECT_EQ(trace.true_power.size(), 10u);
  ASSERT_EQ(trace.vms.size(), 10u);
  EXPECT_DOUBLE_EQ(trace.measured_power.period(), 1.0);
  // Noiseless meter: measured == true.
  for (std::size_t k = 0; k < trace.size(); ++k) {
    EXPECT_DOUBLE_EQ(trace.measured_power[k], trace.true_power[k]);
    ASSERT_EQ(trace.vms[k].size(), 1u);
    EXPECT_EQ(trace.vms[k][0].vm_id, id);
    EXPECT_DOUBLE_EQ(trace.vms[k][0].state.cpu(), 0.5);
  }
}

TEST(Runner, TimestampsContinueAcrossRuns) {
  PhysicalMachine machine(quiet_xeon(), 1);
  const ScenarioTrace first = run_scenario(machine, 5.0, 1.0);
  const ScenarioTrace second = run_scenario(machine, 5.0, 1.0);
  EXPECT_DOUBLE_EQ(first.measured_power.time_at(0), 1.0);
  EXPECT_DOUBLE_EQ(second.measured_power.time_at(0), 6.0);
  EXPECT_DOUBLE_EQ(machine.now(), 10.0);
}

TEST(Runner, AdjustedMeasuredDeductsIdleAndClamps) {
  // Remark 1: the idle floor comes off the reading, bit for bit...
  EXPECT_EQ(adjusted_power_w(180.7, 138.0), 180.7 - 138.0);
  // ...and a reading below the floor is clamped to zero, not negative.
  EXPECT_EQ(adjusted_power_w(137.5, 138.0), 0.0);
  EXPECT_EQ(adjusted_power_w(0.0, 1e6), 0.0);

  PhysicalMachine machine(quiet_xeon(), 1);
  const ScenarioTrace trace = run_scenario(machine, 5.0, 1.0);
  for (std::size_t k = 0; k < trace.size(); ++k)  // idle machine
    EXPECT_EQ(
        adjusted_power_w(trace.measured_power[k], machine.idle_power_w()), 0.0);
}

TEST(Runner, Validation) {
  PhysicalMachine machine(quiet_xeon(), 1);
  EXPECT_THROW(run_scenario(machine, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(run_scenario(machine, 10.0, 0.0), std::invalid_argument);
  // duration/period is cast to size_t, which is undefined for inf or
  // >= 2^64.
  EXPECT_THROW(run_scenario(machine, HUGE_VAL, 1.0), std::invalid_argument);
  EXPECT_THROW(run_scenario(machine, 1e30, 1.0), std::invalid_argument);
  EXPECT_EQ(run_scenario(machine, 600.0, 1.0).size(), 600u);
}

TEST(Runner, SubSecondSampling) {
  PhysicalMachine machine(quiet_xeon(), 1);
  const ScenarioTrace trace = run_scenario(machine, 2.0, 0.5);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_DOUBLE_EQ(trace.measured_power.period(), 0.5);
}

TEST(PhysicalMachine, RaplTracksMeterWithoutNoise) {
  PhysicalMachine machine(quiet_xeon(), 1);
  const VmId id = machine.hypervisor().create_vm(
      common::demo_c_vm(), std::make_unique<wl::ConstantWorkload>(
                               common::StateVector::cpu_only(1.0)));
  machine.hypervisor().start_vm(id);
  MsrFile msr;
  RaplSimulator rapl(msr);
  RaplReader reader(msr);
  double meter_j = 0.0;
  for (int i = 0; i < 30; ++i) {
    const MeterFrame frame = machine.step(1.0);
    rapl.accumulate(machine.true_power(), 1.0);
    meter_j += frame.active_power_w;
  }
  const double pkg_j = reader.energy_since_last_j(RaplDomain::kPackage);
  // Package excludes disk (and the simulator folds everything else in), so
  // it must come within a few percent of, and below, wall energy.
  EXPECT_LT(pkg_j, meter_j);
  EXPECT_GT(pkg_j, 0.9 * meter_j);
}

}  // namespace
}  // namespace vmp::sim
