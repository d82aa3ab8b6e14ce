// Parameterized end-to-end property sweeps of the full estimation pipeline:
// for random fleets, workloads, and seeds, the Shapley-VHC estimator must
// uphold the paper's axioms sample by sample.
#include <gtest/gtest.h>

#include <numeric>

#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "sim/physical_machine.hpp"
#include "util/rng.hpp"
#include "workload/primitives.hpp"
#include "workload/synthetic.hpp"

namespace vmp {
namespace {

using common::StateVector;
using common::VmSample;

class PipelineProperties : public ::testing::TestWithParam<int> {
 protected:
  sim::MachineSpec spec_ = sim::xeon_prototype();

  // Builds a random fleet of 2-4 VMs from the catalogue that fits the host.
  std::vector<common::VmConfig> random_fleet(util::Rng& rng) {
    const auto catalogue = common::paper_vm_catalogue();
    std::vector<common::VmConfig> fleet;
    std::size_t vcpus = 0;
    const std::size_t count = 2 + rng.uniform_u64(3);
    for (std::size_t i = 0; i < count; ++i) {
      const auto& config = catalogue[rng.uniform_u64(catalogue.size())];
      if (vcpus + config.vcpus > spec_.topology.logical_cpus()) break;
      fleet.push_back(config);
      vcpus += config.vcpus;
    }
    if (fleet.size() < 2) fleet.assign(2, catalogue[0]);
    return fleet;
  }
};

TEST_P(PipelineProperties, EfficiencyHoldsEverySample) {
  util::Rng rng(GetParam() * 7907);
  const auto fleet = random_fleet(rng);

  core::CollectionOptions options;
  options.duration_s = 60.0;
  options.seed = GetParam();
  const auto dataset = core::collect_offline_dataset(spec_, fleet, options);
  core::ShapleyVhcEstimator estimator(dataset.universe, dataset.approximation);

  sim::PhysicalMachine machine(spec_, GetParam());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto id = machine.hypervisor().create_vm(
        fleet[i],
        std::make_unique<wl::SyntheticRandomCpu>(GetParam() * 100 + i));
    machine.hypervisor().start_vm(id);
  }
  for (int t = 0; t < 30; ++t) {
    const auto frame = machine.step(1.0);
    const double adjusted =
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    const auto samples = machine.hypervisor().observations();
    const auto phi = estimator.estimate(samples, adjusted);
    const double total = std::accumulate(phi.begin(), phi.end(), 0.0);
    ASSERT_NEAR(total, adjusted, 1e-6) << "seed=" << GetParam() << " t=" << t;
  }
}

TEST_P(PipelineProperties, SymmetryForIdenticalTwins) {
  // Two identical VMs in identical states must receive identical shares,
  // whatever else runs beside them.
  util::Rng rng(GetParam() * 104729 + 13);
  const auto catalogue = common::paper_vm_catalogue();
  const std::vector<common::VmConfig> fleet = {catalogue[0], catalogue[0],
                                               catalogue[1]};
  core::CollectionOptions options;
  options.duration_s = 60.0;
  options.seed = GetParam() + 500;
  const auto dataset = core::collect_offline_dataset(spec_, fleet, options);
  core::ShapleyVhcEstimator estimator(dataset.universe, dataset.approximation);

  for (int trial = 0; trial < 10; ++trial) {
    const double twin_util = rng.uniform();
    const std::vector<VmSample> samples = {
        {0, catalogue[0].type_id, StateVector::cpu_only(twin_util)},
        {1, catalogue[0].type_id, StateVector::cpu_only(twin_util)},
        {2, catalogue[1].type_id, StateVector::cpu_only(rng.uniform())}};
    const auto phi = estimator.estimate(samples, rng.uniform(5.0, 60.0));
    ASSERT_NEAR(phi[0], phi[1], 1e-9) << "trial " << trial;
  }
}

TEST_P(PipelineProperties, DummyGetsNothing) {
  // An idle VM (all-zero state) receives a zero share at every sample — in
  // the *unanchored* game, where worths come purely from the approximation
  // (an idle VM contributes zero to every aggregated state, so its marginal
  // is exactly zero). The anchored online mode deliberately trades a little
  // of Dummy away: the gap between the measured power and the
  // approximation's v(N, C') lands on every VM's share, idle ones included,
  // in exchange for exact Efficiency.
  const auto catalogue = common::paper_vm_catalogue();
  const std::vector<common::VmConfig> fleet = {catalogue[0], catalogue[1]};
  core::CollectionOptions options;
  options.duration_s = 60.0;
  options.seed = GetParam() + 900;
  const auto dataset = core::collect_offline_dataset(spec_, fleet, options);
  core::ShapleyVhcEstimator unanchored(dataset.universe, dataset.approximation,
                                       /*anchor_grand_to_measurement=*/false);
  core::ShapleyVhcEstimator anchored(dataset.universe, dataset.approximation);

  util::Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const double busy_util = rng.uniform();
    const std::vector<VmSample> samples = {
        {0, catalogue[0].type_id, StateVector::cpu_only(busy_util)},
        {1, catalogue[1].type_id, StateVector::zero()}};
    const auto phi = unanchored.estimate(samples, rng.uniform(1.0, 15.0));
    ASSERT_NEAR(phi[1], 0.0, 1e-9) << "trial " << trial;

    // Anchored: the idle VM absorbs at most half the anchor gap.
    const double measured = rng.uniform(1.0, 15.0);
    const auto anchored_phi = anchored.estimate(samples, measured);
    const double gap = std::abs(measured - (phi[0] + phi[1]));
    ASSERT_LE(std::abs(anchored_phi[1]), 0.5 * gap + 1e-9) << "trial " << trial;
  }
}

TEST_P(PipelineProperties, SharesAreNonNegativeUnderMonotoneWorths) {
  // The machine's power is monotone in coalition membership, so no VM should
  // be charged negative power.
  util::Rng rng(GetParam() * 31 + 7);
  const auto fleet = random_fleet(rng);
  core::CollectionOptions options;
  options.duration_s = 60.0;
  options.seed = GetParam() + 1300;
  const auto dataset = core::collect_offline_dataset(spec_, fleet, options);
  core::ShapleyVhcEstimator estimator(dataset.universe, dataset.approximation);

  sim::PhysicalMachine machine(spec_, GetParam() + 77);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto id = machine.hypervisor().create_vm(
        fleet[i],
        std::make_unique<wl::SyntheticRandomCpu>(GetParam() * 9 + i));
    machine.hypervisor().start_vm(id);
  }
  for (int t = 0; t < 20; ++t) {
    const auto frame = machine.step(1.0);
    const double adjusted =
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    const auto samples = machine.hypervisor().observations();
    const auto phi = estimator.estimate(samples, adjusted);
    for (std::size_t i = 0; i < phi.size(); ++i)
      ASSERT_GT(phi[i], -0.5) << "vm " << i << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperties, ::testing::Range(1, 9));

}  // namespace
}  // namespace vmp
