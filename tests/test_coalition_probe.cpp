#include "sim/coalition_probe.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "common/vm_config.hpp"
#include "sim/physical_machine.hpp"
#include "workload/primitives.hpp"
#include "workload/spec_suite.hpp"

namespace vmp::sim {
namespace {

using common::StateVector;

MachineSpec quiet_xeon() {
  MachineSpec spec = xeon_prototype();
  spec.affinity_jitter = 0.0;
  return spec;
}

std::vector<StateVector> full_load(std::size_t n) {
  return std::vector<StateVector>(n, StateVector::cpu_only(1.0));
}

TEST(CoalitionProbe, EmptyCoalitionHasZeroWorth) {
  const CoalitionProbe probe(quiet_xeon(), {common::demo_c_vm()});
  EXPECT_DOUBLE_EQ(probe.worth(0, full_load(1)), 0.0);
}

TEST(CoalitionProbe, WorthIsIdleAdjusted) {
  const CoalitionProbe probe(quiet_xeon(), {common::demo_c_vm()});
  const auto b = probe.breakdown(0b1, full_load(1));
  EXPECT_DOUBLE_EQ(probe.worth(0b1, full_load(1)), b.adjusted());
  EXPECT_DOUBLE_EQ(b.total() - b.adjusted(), quiet_xeon().idle_power_w);
}

TEST(CoalitionProbe, ReproducesThePaperTwoVmGame) {
  // With full sibling packing: v({1}) = 13.15, v({1,2}) ~= 20.2 (Fig. 6).
  MachineSpec spec = quiet_xeon();
  spec.pack_affinity = 1.0;
  spec.llc_contention_w = 0.0;
  const CoalitionProbe probe(spec, {common::demo_c_vm(), common::demo_c_vm()});
  const auto states = full_load(2);
  EXPECT_NEAR(probe.worth(0b01, states), 13.15, 1e-9);
  EXPECT_NEAR(probe.worth(0b10, states), 13.15, 1e-9);
  EXPECT_NEAR(probe.worth(0b11, states),
              13.15 * (2.0 - spec.smt_contention), 1e-9);
}

TEST(CoalitionProbe, WorthIsMonotoneInCoalition) {
  const CoalitionProbe probe(
      quiet_xeon(),
      {common::demo_c_vm(), common::demo_c_vm(), common::paper_vm_type(2)});
  const auto states = full_load(3);
  for (CoalitionMask mask = 0; mask < 8; ++mask) {
    for (int i = 0; i < 3; ++i) {
      if (mask & (1u << i)) continue;
      const CoalitionMask with_i = mask | (1u << i);
      EXPECT_GE(probe.worth(with_i, states), probe.worth(mask, states) - 1e-9)
          << "mask=" << mask << " i=" << i;
    }
  }
}

TEST(CoalitionProbe, SubAdditiveUnderContention) {
  MachineSpec spec = quiet_xeon();
  spec.pack_affinity = 1.0;
  const CoalitionProbe probe(spec, {common::demo_c_vm(), common::demo_c_vm()});
  const auto states = full_load(2);
  EXPECT_LT(probe.worth(0b11, states),
            probe.worth(0b01, states) + probe.worth(0b10, states));
}

TEST(CoalitionProbe, StatesOutsideMaskIgnored) {
  const CoalitionProbe probe(quiet_xeon(),
                             {common::demo_c_vm(), common::demo_c_vm()});
  std::vector<StateVector> a = {StateVector::cpu_only(0.5),
                                StateVector::cpu_only(0.9)};
  std::vector<StateVector> b = {StateVector::cpu_only(0.5),
                                StateVector::cpu_only(0.1)};
  EXPECT_DOUBLE_EQ(probe.worth(0b01, a), probe.worth(0b01, b));
}

TEST(CoalitionProbe, IntensityScalesWorth) {
  const std::vector<common::VmConfig> fleet = {common::demo_c_vm()};
  const CoalitionProbe unit(quiet_xeon(), fleet, {1.0});
  const CoalitionProbe hot(quiet_xeon(), fleet, {1.1});
  const auto states = full_load(1);
  EXPECT_NEAR(hot.worth(0b1, states), 1.1 * unit.worth(0b1, states), 1e-9);
}

TEST(CoalitionProbe, StatesClampedToValidRange) {
  const CoalitionProbe probe(quiet_xeon(), {common::demo_c_vm()});
  const std::vector<StateVector> over = {StateVector::cpu_only(2.0)};
  EXPECT_DOUBLE_EQ(probe.worth(0b1, over), probe.worth(0b1, full_load(1)));
}

TEST(CoalitionProbe, Validation) {
  const MachineSpec spec = quiet_xeon();
  EXPECT_THROW(CoalitionProbe(spec, {}), std::invalid_argument);
  EXPECT_THROW(
      CoalitionProbe(spec, {common::demo_c_vm()}, {1.0, 2.0}),
      std::invalid_argument);
  EXPECT_THROW(CoalitionProbe(spec, {common::demo_c_vm()}, {0.0}),
               std::invalid_argument);
  // Fleet exceeding logical CPUs (3 x 8 vCPU on 16 logical).
  EXPECT_THROW(CoalitionProbe(spec,
                              {common::paper_vm_type(4), common::paper_vm_type(4),
                               common::paper_vm_type(4)}),
               std::invalid_argument);

  const CoalitionProbe probe(spec, {common::demo_c_vm()});
  EXPECT_THROW(probe.worth(0b1, full_load(2)), std::invalid_argument);
  EXPECT_THROW(probe.worth(0b10, full_load(1)), std::invalid_argument);
}

TEST(CoalitionProbe, RunningCoalitionIsTheHypervisorsPowerBitForBit) {
  // The oracle must stand for the billed machine. The mixed 8-VM Xeon host
  // (4 x VM1, 2 x VM2, 2 x VM3) is booted the way fleet::HostAgent boots
  // host seed h: VM i runs spec_subset()[(h + i) % 7] seeded h * 31 + i. One
  // VM is stopped and one idle VM keeps memory and disk busy. Without
  // scheduling jitter, the hypervisor's power is the probe's breakdown of
  // the running VMs at every tick, in every field.
  MachineSpec spec = xeon_prototype();
  spec.affinity_jitter = 0.0;
  const std::uint64_t h = 3;
  std::vector<common::VmConfig> fleet;
  for (const unsigned type : {1, 1, 1, 1, 2, 2, 3, 3})
    fleet.push_back(common::paper_vm_type(type));
  PhysicalMachine machine(spec, h);
  Hypervisor& hv = machine.hypervisor();
  const auto benchmarks = wl::spec_subset();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const wl::SpecBenchmark job = benchmarks[(h + i) % benchmarks.size()];
    const VmId id =
        hv.create_vm(fleet[i], wl::make_spec_workload(job, h * 31 + i));
    hv.start_vm(id);
  }
  hv.stop_vm(2);
  StateVector idle_io;
  idle_io[common::Component::kMemory] = 0.35;
  idle_io[common::Component::kDiskIo] = 0.2;
  hv.bind_workload(6, std::make_unique<wl::ConstantWorkload>(idle_io));

  std::vector<double> intensities;
  for (VmId id = 0; id < hv.vm_count(); ++id)
    intensities.push_back(hv.vm(id).power_intensity());
  const CoalitionProbe probe(spec, fleet, intensities);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  int loaded_ticks = 0;
  for (int tick = 0; tick < 200; ++tick) {
    machine.step(1.0);
    CoalitionMask running = 0;
    std::vector<StateVector> states;
    for (VmId id = 0; id < hv.vm_count(); ++id) {
      if (hv.vm(id).running()) running |= CoalitionMask{1} << id;
      states.push_back(hv.vm(id).observed_state());
    }
    ASSERT_EQ(running, 0b11111011u);
    ASSERT_EQ(states[6].cpu(), 0.0);
    const PowerBreakdown truth = hv.current_power();
    if (truth.cpu_dynamic > 0.0 && truth.llc_penalty > 0.0 &&
        truth.memory > 0.0 && truth.disk > 0.0)
      ++loaded_ticks;
    const PowerBreakdown oracle = probe.breakdown(running, states);
    EXPECT_EQ(bits(truth.idle), bits(oracle.idle)) << "tick " << tick;
    EXPECT_EQ(bits(truth.cpu_dynamic), bits(oracle.cpu_dynamic))
        << "tick " << tick;
    EXPECT_EQ(bits(truth.llc_penalty), bits(oracle.llc_penalty))
        << "tick " << tick;
    EXPECT_EQ(bits(truth.memory), bits(oracle.memory)) << "tick " << tick;
    EXPECT_EQ(bits(truth.disk), bits(oracle.disk)) << "tick " << tick;
  }
  EXPECT_GT(loaded_ticks, 100);
}

}  // namespace
}  // namespace vmp::sim
