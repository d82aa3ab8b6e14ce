#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/vm_config.hpp"
#include "sim/dstat.hpp"
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
  EXPECT_EQ(trace.states.size(), 10u);
  EXPECT_DOUBLE_EQ(trace.measured_power.period(), 1.0);
  // Noiseless meter: measured == true.
  for (std::size_t k = 0; k < trace.size(); ++k)
    EXPECT_DOUBLE_EQ(trace.measured_power[k], trace.true_power[k]);
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
  PhysicalMachine machine(quiet_xeon(), 1);
  const ScenarioTrace trace = run_scenario(machine, 5.0, 1.0);
  const auto adjusted = trace.adjusted_measured(machine.idle_power_w());
  for (std::size_t k = 0; k < adjusted.size(); ++k) {
    EXPECT_GE(adjusted[k], 0.0);
    EXPECT_DOUBLE_EQ(adjusted[k], 0.0);  // idle machine
  }
  // Clamping: a huge idle floor cannot produce negative samples.
  const auto clamped = trace.adjusted_measured(1e6);
  for (std::size_t k = 0; k < clamped.size(); ++k)
    EXPECT_DOUBLE_EQ(clamped[k], 0.0);
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

TEST(Dstat, SeriesForTracksOneVm) {
  PhysicalMachine machine(quiet_xeon(), 1);
  const VmId a = machine.hypervisor().create_vm(
      common::demo_c_vm(), std::make_unique<wl::ConstantWorkload>(
                               common::StateVector::cpu_only(0.3)));
  const VmId b = machine.hypervisor().create_vm(
      common::demo_c_vm(), std::make_unique<wl::ConstantWorkload>(
                               common::StateVector::cpu_only(0.8)));
  machine.hypervisor().start_vm(a);
  DstatCollector collector;
  machine.step(1.0);
  collector.sample(machine.hypervisor());
  machine.hypervisor().start_vm(b);
  machine.step(1.0);
  collector.sample(machine.hypervisor());

  const auto series_a = collector.series_for(a);
  const auto series_b = collector.series_for(b);
  ASSERT_EQ(series_a.size(), 2u);
  EXPECT_DOUBLE_EQ(series_a[0].cpu(), 0.3);
  EXPECT_DOUBLE_EQ(series_a[1].cpu(), 0.3);
  // VM b was not running at the first sample -> zero state there.
  EXPECT_DOUBLE_EQ(series_b[0].cpu(), 0.0);
  EXPECT_DOUBLE_EQ(series_b[1].cpu(), 0.8);
}

TEST(Dstat, ClearEmptiesRecords) {
  PhysicalMachine machine(quiet_xeon(), 1);
  DstatCollector collector;
  collector.sample(machine.hypervisor());
  EXPECT_EQ(collector.size(), 1u);
  collector.clear();
  EXPECT_EQ(collector.size(), 0u);
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
