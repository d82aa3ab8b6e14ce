#include "sim/power_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/coalition_probe.hpp"
#include "util/rng.hpp"

namespace vmp::sim {
namespace {

using common::Component;
using common::StateVector;

MachineSpec quiet_xeon() {
  MachineSpec spec = xeon_prototype();
  spec.meter_noise_sigma_w = 0.0;
  spec.meter_quantum_w = 0.0;
  spec.affinity_jitter = 0.0;
  return spec;
}

std::vector<RunningVm> one_vcpu_vms(std::size_t n, double util,
                                    double intensity = 1.0) {
  return std::vector<RunningVm>(
      n, RunningVm{1, 512, StateVector::cpu_only(util), intensity});
}

RunningVm idle_vm(unsigned memory_mb, double memory, double disk) {
  StateVector state;
  state[Component::kMemory] = memory;
  state[Component::kDiskIo] = disk;
  return {1, memory_mb, state, 1.0};
}

// ---------------------------------------------------------------------------
// The oracle: the placement search machine_power's closed form replaced. It
// places each busy vCPU, in order, on the lowest free logical CPU of the
// preferred kind (pack: one whose sibling is busy; spread: one whose sibling
// is free), then sums per-core power over that placement. Logical CPUs are
// core-major: core c owns {2c, 2c+1} under 2-way SMT, and {c} without it.

struct OracleDemand {
  double utilization = 0.0;
  double intensity = 1.0;
};

struct OracleLoad {
  double cpu_thread_demand = 0.0;
  double memory_mb_used = 0.0;
  double disk_util = 0.0;
};

struct OracleThread {
  bool busy = false;
  double utilization = 0.0;
  double intensity = 1.0;

  [[nodiscard]] double effective_load() const {
    return busy ? utilization * intensity : 0.0;
  }
};

std::vector<OracleThread> greedy_place(const CpuTopology& topo,
                                       const std::vector<OracleDemand>& demands,
                                       bool pack) {
  const std::size_t n_cpus = topo.logical_cpus();
  const auto sibling_of = [&](std::size_t cpu) {
    return topo.threads_per_core() == 2 ? cpu ^ 1U : cpu;
  };
  std::vector<OracleThread> placement(n_cpus);
  for (const OracleDemand& demand : demands) {
    std::size_t best = n_cpus;
    std::size_t best_score = std::numeric_limits<std::size_t>::max();
    for (std::size_t cpu = 0; cpu < n_cpus; ++cpu) {
      if (placement[cpu].busy) continue;
      const bool sibling_busy = placement[sibling_of(cpu)].busy;
      const std::size_t score = (pack == sibling_busy ? 0 : n_cpus) + cpu;
      if (score < best_score) {
        best_score = score;
        best = cpu;
      }
    }
    placement.at(best) = {true, demand.utilization, demand.intensity};
  }
  return placement;
}

PowerBreakdown oracle_power(const MachineSpec& spec,
                            const std::vector<OracleThread>& placement,
                            const std::vector<OracleLoad>& loads) {
  const std::size_t tpc = spec.topology.threads_per_core();
  PowerBreakdown p;
  p.idle = spec.idle_power_w;
  const double pt = spec.thread_full_power_w;
  for (std::size_t core = 0; core < spec.topology.physical_cores(); ++core) {
    const std::size_t t0 = core * tpc;
    const double e1 = placement[t0].effective_load();
    const double e2 = tpc == 2 ? placement[t0 + 1].effective_load() : 0.0;
    p.cpu_dynamic += pt * (e1 + e2) - spec.smt_contention * pt * std::min(e1, e2);
  }
  if (p.cpu_dynamic > spec.cpu_power_knee_w) {
    p.cpu_dynamic = spec.cpu_power_knee_w +
                    spec.cpu_saturation_slope *
                        (p.cpu_dynamic - spec.cpu_power_knee_w);
  }
  double llc = 0.0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (loads[i].cpu_thread_demand <= 0.0) continue;
    for (std::size_t j = i + 1; j < loads.size(); ++j)
      llc += spec.llc_contention_w *
             std::min(loads[i].cpu_thread_demand, loads[j].cpu_thread_demand);
  }
  p.llc_penalty = std::min(llc, 0.25 * p.cpu_dynamic);
  double mem_mb = 0.0;
  double disk = 0.0;
  for (const OracleLoad& load : loads) {
    mem_mb += load.memory_mb_used;
    disk += load.disk_util;
  }
  p.memory = spec.memory_power_w *
             std::min(1.0, mem_mb / static_cast<double>(spec.memory_mb));
  p.disk = spec.disk_power_w * std::min(1.0, disk);
  return p;
}

/// The oracle's blend over the same VMs. `stopped_before[i]` all-zero loads
/// precede VM i, as stopped or out-of-coalition VMs once did.
PowerBreakdown oracle_blend(const MachineSpec& spec,
                            const std::vector<RunningVm>& vms,
                            const std::vector<std::size_t>& stopped_before,
                            double a) {
  std::vector<OracleDemand> demands;
  std::vector<OracleLoad> loads;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    loads.resize(loads.size() + stopped_before[i]);
    const RunningVm& vm = vms[i];
    if (vm.state.cpu() > 0.0)
      demands.insert(demands.end(), vm.vcpus,
                     {vm.state.cpu(), vm.intensity});
    loads.push_back(
        {vm.state.cpu() * vm.intensity * static_cast<double>(vm.vcpus),
         vm.state.memory() * static_cast<double>(vm.memory_mb),
         vm.state.disk_io()});
  }
  const PowerBreakdown packed =
      oracle_power(spec, greedy_place(spec.topology, demands, true), loads);
  const PowerBreakdown spread =
      oracle_power(spec, greedy_place(spec.topology, demands, false), loads);
  PowerBreakdown p;
  p.idle = packed.idle;
  p.cpu_dynamic = a * packed.cpu_dynamic + (1.0 - a) * spread.cpu_dynamic;
  p.llc_penalty = a * packed.llc_penalty + (1.0 - a) * spread.llc_penalty;
  p.memory = packed.memory;
  p.disk = packed.disk;
  return p;
}

void expect_bitwise_equal(const PowerBreakdown& got, const PowerBreakdown& want,
                          const std::string& where) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(bits(got.idle), bits(want.idle)) << where;
  EXPECT_EQ(bits(got.cpu_dynamic), bits(want.cpu_dynamic)) << where;
  EXPECT_EQ(bits(got.llc_penalty), bits(want.llc_penalty)) << where;
  EXPECT_EQ(bits(got.memory), bits(want.memory)) << where;
  EXPECT_EQ(bits(got.disk), bits(want.disk)) << where;
}

TEST(MachinePower, MatchesTheGreedyPlacementOracleBitForBit) {
  const CpuTopology topologies[] = {{1, 8, 2}, {1, 2, 2}, {1, 4, 1},
                                    {2, 4, 2}, {1, 3, 2}, {1, 1, 1}};
  util::Rng rng(29);
  // Exact 1.0 utilizations and intensities, as constant workloads give.
  const auto draw = [&](double lo, double hi) {
    return rng.bernoulli(0.2) ? 1.0 : rng.uniform(lo, hi);
  };
  std::size_t cases = 0;
  for (const CpuTopology& topology : topologies) {
    MachineSpec base = topology == CpuTopology{1, 2, 2} ? pentium_desktop()
                                                        : xeon_prototype();
    base.topology = topology;
    for (std::size_t busy = 0; busy <= topology.logical_cpus(); ++busy) {
      for (int trial = 0; trial < 40; ++trial) {
        MachineSpec spec = base;
        // Push some cases past the turbo knee and into the LLC cap.
        if (rng.bernoulli(0.3)) spec.cpu_power_knee_w = rng.uniform(5.0, 40.0);
        if (rng.bernoulli(0.3)) spec.llc_contention_w = rng.uniform(1.0, 20.0);
        std::vector<RunningVm> vms;
        std::vector<std::size_t> stopped_before;
        const auto add = [&](RunningVm vm) {
          vm.state[Component::kMemory] = rng.bernoulli(0.3) ? 0.0 : draw(0, 1);
          vm.state[Component::kDiskIo] =
              rng.bernoulli(0.3) ? 0.0 : draw(0, 0.6);
          vm.memory_mb = 512u << rng.uniform_u64(5);
          vms.push_back(vm);
          stopped_before.push_back(rng.bernoulli(0.2) ? 1 + rng.uniform_u64(2)
                                                      : 0);
        };
        // Idle VMs (cpu 0) may carry memory and disk load but no vCPU slot.
        const auto add_idle = [&](std::uint64_t max_vcpus) {
          add({1 + static_cast<unsigned>(rng.uniform_u64(max_vcpus)), 0, {},
               1.0});
        };
        for (std::size_t placed = 0; placed < busy;) {
          if (rng.bernoulli(0.25)) add_idle(2);
          const auto vcpus = static_cast<unsigned>(
              std::min<std::size_t>(1 + rng.uniform_u64(4), busy - placed));
          add({vcpus, 0, StateVector::cpu_only(draw(0.01, 1.0)),
               draw(0.5, 1.6)});
          placed += vcpus;
        }
        if (rng.bernoulli(0.5)) add_idle(4);

        for (const double a : {0.0, 1.0, spec.pack_affinity, rng.uniform()}) {
          const std::string where =
              "topology {" + std::to_string(topology.sockets()) + "," +
              std::to_string(topology.cores_per_socket()) + "," +
              std::to_string(topology.threads_per_core()) + "}, " +
              std::to_string(busy) + " busy vCPUs, trial " +
              std::to_string(trial) + ", pack fraction " + std::to_string(a);
          expect_bitwise_equal(machine_power(spec, vms, a),
                               oracle_blend(spec, vms, stopped_before, a),
                               where);
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 7000u);
}

TEST(MachinePower, RejectsPackFractionsOutsideTheUnitInterval) {
  const MachineSpec spec = quiet_xeon();
  const auto full = one_vcpu_vms(spec.topology.logical_cpus(), 0.5);
  EXPECT_NO_THROW(machine_power(spec, full, 0.0));
  EXPECT_NO_THROW(machine_power(spec, full, 1.0));
  EXPECT_THROW(machine_power(spec, full, -0.01), std::invalid_argument);
  EXPECT_THROW(machine_power(spec, full, 1.5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Which busy vCPUs share a core, seen through the power they draw. CpuTopology
// only counts cores and threads; the core-major layout on them and the pack
// and spread slots are machine_power's arithmetic, so they are tested here.
// With the turbo knee out of reach, cpu_dynamic is the plain per-core sum.
// Loads are chosen so that any other pairing of vCPUs on cores would draw a
// different power.

const CpuTopology kTopo{1, 4, 2};  // 8 logical CPUs

MachineSpec unthrottled(const CpuTopology& topology) {
  MachineSpec spec = quiet_xeon();
  spec.topology = topology;
  spec.cpu_power_knee_w = std::numeric_limits<double>::max();
  return spec;
}

/// Dynamic power of one core whose threads carry effective loads e1 and e2.
double core_watts(const MachineSpec& spec, double e1, double e2) {
  const double pt = spec.thread_full_power_w;
  return pt * (e1 + e2) - spec.smt_contention * pt * std::min(e1, e2);
}

/// One 1-vCPU VM per load, in order, so busy vCPU k carries loads[k].
std::vector<RunningVm> vcpu_loads(const std::vector<double>& loads) {
  std::vector<RunningVm> vms;
  for (double u : loads)
    vms.push_back({1, 512, StateVector::cpu_only(u), 1.0});
  return vms;
}

TEST(Place, EveryDemandGetsExactlyOneThread) {
  // Without SMT contention the per-core sum is additive, so the machine draws
  // p_t per unit of load exactly when every busy vCPU has one thread.
  MachineSpec spec = unthrottled(kTopo);
  spec.smt_contention = 0.0;
  const std::vector<RunningVm> vms = {
      {1, 512, StateVector::cpu_only(0.5), 1.0},
      {2, 512, StateVector::cpu_only(0.7), 1.0},
      {1, 512, StateVector::cpu_only(1.0), 1.0}};
  for (double a : {0.0, 1.0})
    EXPECT_NEAR(machine_power(spec, vms, a).cpu_dynamic,
                spec.thread_full_power_w * (0.5 + 2 * 0.7 + 1.0), 1e-12)
        << "pack fraction " << a;
}

TEST(Place, SpreadPrefersEmptyCores) {
  // Up to one busy vCPU per core, spread gives each a core of its own.
  const MachineSpec spec = unthrottled(kTopo);
  const auto vms = vcpu_loads({1.0, 0.9, 0.3, 0.2});
  const double alone = spec.thread_full_power_w * (1.0 + 0.9 + 0.3 + 0.2);
  EXPECT_NEAR(machine_power(spec, vms, 0.0).cpu_dynamic, alone, 1e-12);
  EXPECT_LT(machine_power(spec, vms, 1.0).cpu_dynamic, alone);
}

TEST(Place, PackFillsSiblingsFirst) {
  // Two busy vCPUs share core 0 — the Fig. 4 configuration — and four pair
  // up as (0, 1) on core 0 and (2, 3) on core 1.
  const MachineSpec spec = unthrottled(kTopo);
  EXPECT_NEAR(machine_power(spec, vcpu_loads({1.0, 1.0}), 1.0).cpu_dynamic,
              core_watts(spec, 1.0, 1.0), 1e-12);
  EXPECT_NEAR(
      machine_power(spec, vcpu_loads({1.0, 0.9, 0.3, 0.2}), 1.0).cpu_dynamic,
      core_watts(spec, 1.0, 0.9) + core_watts(spec, 0.3, 0.2), 1e-12);
}

TEST(Place, PackPairsAcrossVms) {
  // Three 1-vCPU VMs under pack: two share core 0, the third opens core 1.
  const MachineSpec spec = unthrottled(kTopo);
  EXPECT_NEAR(machine_power(spec, vcpu_loads({1.0, 0.9, 0.3}), 1.0).cpu_dynamic,
              core_watts(spec, 1.0, 0.9) + core_watts(spec, 0.3, 0.0), 1e-12);
}

TEST(Place, SpreadFallsBackToSiblingsWhenCrowded) {
  // 5 busy vCPUs on 4 cores: spread doubles up the fifth beside vCPU 0.
  const MachineSpec spec = unthrottled(kTopo);
  EXPECT_NEAR(
      machine_power(spec, vcpu_loads({1.0, 0.5, 0.4, 0.3, 0.9}), 0.0)
          .cpu_dynamic,
      core_watts(spec, 1.0, 0.9) + core_watts(spec, 0.5, 0.0) +
          core_watts(spec, 0.4, 0.0) + core_watts(spec, 0.3, 0.0),
      1e-12);
}

TEST(Place, FullMachineBothModesIdentical) {
  // Every logical CPU busy at one load: both placements fill every core.
  const MachineSpec spec = unthrottled(kTopo);
  const auto vms = one_vcpu_vms(kTopo.logical_cpus(), 0.5);
  const PowerBreakdown spread = machine_power(spec, vms, 0.0);
  const PowerBreakdown pack = machine_power(spec, vms, 1.0);
  EXPECT_DOUBLE_EQ(spread.cpu_dynamic, pack.cpu_dynamic);
  EXPECT_NEAR(pack.cpu_dynamic, 4.0 * core_watts(spec, 0.5, 0.5), 1e-12);
}

TEST(Place, OvercommitRejected) {
  const MachineSpec spec = unthrottled(kTopo);
  for (double a : {0.0, 1.0}) {
    EXPECT_NO_THROW(machine_power(spec, one_vcpu_vms(8, 0.5), a));
    EXPECT_THROW(machine_power(spec, one_vcpu_vms(9, 0.5), a),
                 std::invalid_argument);
    // A 2-vCPU VM does not fit in the one logical CPU left free.
    auto split = one_vcpu_vms(7, 0.5);
    split.push_back({2, 512, StateVector::cpu_only(0.1), 1.0});
    EXPECT_THROW(machine_power(spec, split, a), std::invalid_argument);
    // Idle vCPUs stay off the cores, so they never overcommit the host.
    auto with_idle = one_vcpu_vms(8, 0.5);
    with_idle.push_back(idle_vm(512, 0.5, 0.1));
    EXPECT_NO_THROW(machine_power(spec, with_idle, a));
  }
}

TEST(Place, CarriesUtilizationAndIntensity) {
  // A busy thread's load is utilization x intensity, alone and beside its
  // sibling.
  const MachineSpec spec = unthrottled(kTopo);
  const RunningVm a{1, 512, StateVector::cpu_only(0.33), 1.25};
  const RunningVm b{1, 512, StateVector::cpu_only(0.5), 0.8};
  EXPECT_NEAR(machine_power(spec, std::vector<RunningVm>{a}, 0.0).cpu_dynamic,
              spec.thread_full_power_w * 0.4125, 1e-12);
  EXPECT_NEAR(
      machine_power(spec, std::vector<RunningVm>{a, b}, 1.0).cpu_dynamic,
      core_watts(spec, 0.4125, 0.4), 1e-12);
}

TEST(Place, IdleThreadHasZeroEffectiveLoad) {
  // A VM at zero CPU takes no thread: the busy vCPUs around it pair up as if
  // it were absent, and its memory and disk load add no CPU power.
  const MachineSpec spec = unthrottled(kTopo);
  const auto busy = vcpu_loads({1.0, 0.9});
  RunningVm idle = idle_vm(512, 0.5, 0.2);
  idle.vcpus = 2;
  const std::vector<RunningVm> with_idle = {busy[0], idle, busy[1]};
  for (double a : {0.0, 1.0}) {
    EXPECT_DOUBLE_EQ(machine_power(spec, with_idle, a).cpu_dynamic,
                     machine_power(spec, busy, a).cpu_dynamic);
    EXPECT_DOUBLE_EQ(
        machine_power(spec, std::vector<RunningVm>{idle}, a).cpu_dynamic, 0.0);
  }
  EXPECT_NEAR(machine_power(spec, with_idle, 1.0).cpu_dynamic,
              core_watts(spec, 1.0, 0.9), 1e-12);
}

TEST(Place, DeterministicForGivenMode) {
  const MachineSpec spec = unthrottled(kTopo);
  const auto vms = vcpu_loads({0.4, 0.6});
  for (double a : {0.0, 1.0})
    expect_bitwise_equal(machine_power(spec, vms, a),
                         machine_power(spec, vms, a),
                         "pack fraction " + std::to_string(a));
}

TEST(CpuTopology, CoreMajorLayout) {
  // Core c owns logical CPUs {2c, 2c+1}, across sockets too; pack runs busy
  // vCPU k on logical CPU k. The loads fall with k, so pairing neighbours
  // maximises the pairs' summed minima: any other pairing draws more power.
  for (const CpuTopology& topology :
       {CpuTopology{1, 4, 2}, CpuTopology{2, 4, 2}}) {
    const MachineSpec spec = unthrottled(topology);
    std::vector<double> loads;
    for (std::size_t k = 0; k < topology.logical_cpus(); ++k)
      loads.push_back(1.0 - 0.05 * static_cast<double>(k));
    double want = 0.0;
    for (std::size_t c = 0; c < topology.physical_cores(); ++c)
      want += core_watts(spec, loads[2 * c], loads[2 * c + 1]);
    EXPECT_NEAR(machine_power(spec, vcpu_loads(loads), 1.0).cpu_dynamic, want,
                1e-9)
        << topology.sockets() << " sockets";
  }
}

TEST(CpuTopology, SiblingPairsAreInvolutions) {
  // Under spread, vCPU c and vCPU C + c are the two threads of core c. The
  // pair is symmetric: swapping their loads leaves the power bit for bit.
  const CpuTopology topology{1, 8, 2};
  const MachineSpec spec = unthrottled(topology);
  const std::size_t cores = topology.physical_cores();
  std::vector<double> loads(topology.logical_cpus());
  double want = 0.0;
  for (std::size_t c = 0; c < cores; ++c) {
    loads[c] = 1.0 - 0.1 * static_cast<double>(c);
    loads[cores + c] = loads[c] - 0.05;
    want += core_watts(spec, loads[c], loads[cores + c]);
  }
  const double spread = machine_power(spec, vcpu_loads(loads), 0.0).cpu_dynamic;
  EXPECT_NEAR(spread, want, 1e-9);
  for (std::size_t c = 0; c < cores; ++c) std::swap(loads[c], loads[cores + c]);
  EXPECT_EQ(machine_power(spec, vcpu_loads(loads), 0.0).cpu_dynamic, spread);
}

TEST(CpuTopology, SmtOffSiblingIsSelf) {
  // Without SMT a logical CPU is a whole core: no busy vCPU has a sibling to
  // contend with, so pack and spread both draw p_t per unit of load.
  const MachineSpec spec = unthrottled({1, 4, 1});
  const auto vms = vcpu_loads({1.0, 0.9, 0.3, 0.2});
  for (double a : {0.0, 1.0})
    EXPECT_NEAR(machine_power(spec, vms, a).cpu_dynamic,
                spec.thread_full_power_w * (1.0 + 0.9 + 0.3 + 0.2), 1e-12)
        << "pack fraction " << a;
}

TEST(CpuTopology, FirstThreadOfCore) {
  // Core c's first thread is logical CPU 2c. Pack leaves the last of an odd
  // number of busy vCPUs alone there; spread runs vCPU c < C alone there.
  const MachineSpec spec = unthrottled(kTopo);
  const std::size_t cores = kTopo.physical_cores();
  for (std::size_t n = 1; n <= kTopo.logical_cpus(); ++n) {
    std::vector<double> loads;
    for (std::size_t k = 0; k < n; ++k)
      loads.push_back(1.0 - 0.1 * static_cast<double>(k));
    double pack = 0.0;
    for (std::size_t c = 0; 2 * c < n; ++c)
      pack += core_watts(spec, loads[2 * c],
                         2 * c + 1 < n ? loads[2 * c + 1] : 0.0);
    EXPECT_NEAR(machine_power(spec, vcpu_loads(loads), 1.0).cpu_dynamic, pack,
                1e-12)
        << n << " busy";
    if (n > cores) continue;
    double spread = 0.0;
    for (std::size_t c = 0; c < n; ++c)
      spread += core_watts(spec, loads[c], 0.0);
    EXPECT_NEAR(machine_power(spec, vcpu_loads(loads), 0.0).cpu_dynamic, spread,
                1e-12)
        << n << " busy";
  }
}

TEST(ComputePower, IdleMachineDrawsIdleFloor) {
  const MachineSpec spec = quiet_xeon();
  for (double a : {0.0, 1.0}) {
    const PowerBreakdown p = machine_power(spec, {}, a);
    EXPECT_DOUBLE_EQ(p.total(), spec.idle_power_w);
    EXPECT_DOUBLE_EQ(p.adjusted(), 0.0);
  }
}

TEST(ComputePower, SingleThreadLinearInLoad) {
  const MachineSpec spec = quiet_xeon();
  for (double u : {0.25, 0.5, 1.0}) {
    const PowerBreakdown power = machine_power(spec, one_vcpu_vms(1, u), 0.0);
    EXPECT_NEAR(power.cpu_dynamic, spec.thread_full_power_w * u, 1e-12);
  }
}

TEST(ComputePower, SiblingContentionIsSubAdditive) {
  // The paper's Sec. III phenomenon: the second sibling thread adds only
  // (1 - gamma) of its nominal power.
  const MachineSpec spec = quiet_xeon();
  const auto vms = one_vcpu_vms(2, 1.0);
  const PowerBreakdown p = machine_power(spec, vms, 1.0);
  const double expected =
      spec.thread_full_power_w * (2.0 - spec.smt_contention);
  EXPECT_NEAR(p.cpu_dynamic, expected, 1e-12);

  const PowerBreakdown q = machine_power(spec, vms, 0.0);
  EXPECT_NEAR(q.cpu_dynamic, 2.0 * spec.thread_full_power_w, 1e-12);
  EXPECT_LT(p.cpu_dynamic, q.cpu_dynamic);
}

TEST(ComputePower, ContentionScalesWithOverlapOnly) {
  // Overlap is min(e1, e2): an idle sibling costs nothing extra.
  const MachineSpec spec = quiet_xeon();
  std::vector<RunningVm> vms = one_vcpu_vms(2, 1.0);
  vms[1].state = StateVector::cpu_only(0.3);
  const PowerBreakdown p = machine_power(spec, vms, 1.0);
  const double expected =
      spec.thread_full_power_w * (1.3 - spec.smt_contention * 0.3);
  EXPECT_NEAR(p.cpu_dynamic, expected, 1e-12);
}

TEST(ComputePower, IntensityScalesThreadPower) {
  const MachineSpec spec = quiet_xeon();
  const PowerBreakdown power =
      machine_power(spec, one_vcpu_vms(1, 1.0, 1.1), 0.0);
  EXPECT_NEAR(power.cpu_dynamic, 1.1 * spec.thread_full_power_w, 1e-12);
}

TEST(ComputePower, LlcPenaltyBetweenDistinctVmsOnly) {
  MachineSpec spec = quiet_xeon();
  spec.llc_contention_w = 0.5;
  // One 2-vCPU VM with demand 2.0 has no pair -> no penalty.
  const std::vector<RunningVm> solo = {
      {2, 512, StateVector::cpu_only(1.0), 1.0}};
  EXPECT_DOUBLE_EQ(machine_power(spec, solo, 0.0).llc_penalty, 0.0);
  // Two VMs with demands 1.0 each -> penalty 0.5 * min(1,1).
  EXPECT_NEAR(machine_power(spec, one_vcpu_vms(2, 1.0), 0.0).llc_penalty, 0.5,
              1e-12);
}

TEST(ComputePower, LlcPenaltyCapped) {
  MachineSpec spec = quiet_xeon();
  spec.llc_contention_w = 1000.0;  // absurd coupling
  for (double a : {0.0, 1.0}) {
    const PowerBreakdown power = machine_power(spec, one_vcpu_vms(2, 1.0), a);
    EXPECT_LE(power.llc_penalty, 0.25 * power.cpu_dynamic + 1e-12);
    EXPECT_GT(power.total(), spec.idle_power_w);  // never below idle
  }
}

TEST(ComputePower, MemoryAndDiskLinearAndCapped) {
  const MachineSpec spec = quiet_xeon();
  // Half the host DRAM resident -> half the DRAM power.
  const std::vector<RunningVm> half_mem = {idle_vm(spec.memory_mb, 0.5, 0.0)};
  EXPECT_NEAR(machine_power(spec, half_mem, 1.0).memory,
              spec.memory_power_w / 2.0, 1e-9);
  // Oversubscribed DRAM accounting saturates at the device maximum.
  const std::vector<RunningVm> over_mem = {
      idle_vm(3 * spec.memory_mb, 1.0, 0.0)};
  EXPECT_DOUBLE_EQ(machine_power(spec, over_mem, 0.0).memory,
                   spec.memory_power_w);
  // Disk saturates likewise.
  const std::vector<RunningVm> disk = {idle_vm(512, 0.0, 0.7),
                                       idle_vm(512, 0.0, 0.7)};
  EXPECT_DOUBLE_EQ(machine_power(spec, disk, 1.0).disk, spec.disk_power_w);
}

TEST(BlendedPower, InterpolatesBetweenModes) {
  const MachineSpec spec = quiet_xeon();
  const auto vms = one_vcpu_vms(2, 1.0);
  const PowerBreakdown at0 = machine_power(spec, vms, 0.0);
  const PowerBreakdown at1 = machine_power(spec, vms, 1.0);
  const PowerBreakdown mid = machine_power(spec, vms, 0.5);
  EXPECT_NEAR(mid.cpu_dynamic, 0.5 * (at0.cpu_dynamic + at1.cpu_dynamic), 1e-12);
  EXPECT_GT(at0.cpu_dynamic, at1.cpu_dynamic);  // spread draws more
}

TEST(ExpectedPower, UsesSpecAffinity) {
  // CoalitionProbe's worths are machine_power at the nominal pack fraction.
  MachineSpec spec = quiet_xeon();
  spec.pack_affinity = 0.25;
  const CoalitionProbe probe(spec, {common::demo_c_vm(), common::demo_c_vm()});
  const std::vector<StateVector> states(2, StateVector::cpu_only(1.0));
  std::vector<RunningVm> vms;
  for (const common::VmConfig& config : probe.configs())
    vms.push_back({config.vcpus, config.memory_mb, StateVector::cpu_only(1.0),
                   1.0});
  EXPECT_DOUBLE_EQ(probe.breakdown(0b11, states).total(),
                   machine_power(spec, vms, 0.25).total());
}

TEST(PowerBreakdown, TotalAndAdjustedConsistent) {
  PowerBreakdown p;
  p.idle = 138.0;
  p.cpu_dynamic = 20.0;
  p.llc_penalty = 1.0;
  p.memory = 2.0;
  p.disk = 3.0;
  EXPECT_DOUBLE_EQ(p.total(), 162.0);
  EXPECT_DOUBLE_EQ(p.adjusted(), 24.0);
}

TEST(MachineSpec, PresetsValid) {
  EXPECT_NO_THROW(xeon_prototype().validate());
  EXPECT_NO_THROW(pentium_desktop().validate());
  EXPECT_EQ(xeon_prototype().topology.logical_cpus(), 16u);
  // SMT gamma plus the LLC coupling reproduce the paper's 46.15 %.
  EXPECT_NEAR(xeon_prototype().smt_contention, 0.4425, 1e-9);
  EXPECT_NEAR(pentium_desktop().smt_contention, 0.2355, 1e-9);
}

TEST(MachineSpec, ValidationCatchesBadParameters) {
  MachineSpec spec = xeon_prototype();
  spec.smt_contention = 1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = xeon_prototype();
  spec.thread_full_power_w = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = xeon_prototype();
  spec.pack_affinity = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = xeon_prototype();
  spec.idle_power_w = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace vmp::sim
