// End-to-end integration tests: the paper's headline phenomena, reproduced
// through the full stack (simulator -> telemetry -> offline training ->
// online estimation).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>

#include "baselines/power_model.hpp"
#include "baselines/trainer.hpp"
#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "core/shapley.hpp"
#include "sim/coalition_probe.hpp"
#include "sim/physical_machine.hpp"
#include "sim/runner.hpp"
#include "util/stats.hpp"
#include "workload/spec_suite.hpp"
#include "workload/synthetic.hpp"

namespace vmp {
namespace {

using common::StateVector;

// Measures the marginal power of starting the two VMs in sequence on the
// given machine (the paper's Fig. 4 experiment), returning {first, second}.
std::pair<double, double> sequenced_marginals(const sim::MachineSpec& spec) {
  sim::MachineSpec packed = spec;
  packed.pack_affinity = 1.0;  // the measured platform co-scheduled siblings
  packed.affinity_jitter = 0.0;
  sim::PhysicalMachine machine(packed, 7);
  const auto a = machine.hypervisor().create_vm(
      common::demo_c_vm(), std::make_unique<wl::BcFloatLoop>());
  const auto b = machine.hypervisor().create_vm(
      common::demo_c_vm(), std::make_unique<wl::BcFloatLoop>());
  const auto mean_power = [&](double seconds) {
    const auto trace = sim::run_scenario(machine, seconds);
    return util::mean(trace.measured_power.values());
  };
  const double idle = mean_power(20.0);
  machine.hypervisor().start_vm(a);
  const double one = mean_power(20.0);
  machine.hypervisor().start_vm(b);
  const double both = mean_power(20.0);
  return {one - idle, both - one};
}

TEST(PaperShape, Fig4XeonSecondVmError46Percent) {
  const auto [first, second] = sequenced_marginals(sim::xeon_prototype());
  EXPECT_NEAR(first, 13.15, 0.5);
  // Power-model prediction for the second VM is `first`; the measured truth
  // is `second` — the paper reports a 46.15 % gap on the Xeon.
  const double error = (first - second) / first;
  EXPECT_NEAR(error, 0.4615, 0.05);
}

TEST(PaperShape, Fig4PentiumSecondVmError25Percent) {
  const auto [first, second] = sequenced_marginals(sim::pentium_desktop());
  const double error = (first - second) / first;
  EXPECT_NEAR(error, 0.2522, 0.05);
}

TEST(PaperShape, TableIIIShapleyTenEach) {
  sim::MachineSpec spec = sim::xeon_prototype();
  spec.pack_affinity = 1.0;
  const sim::CoalitionProbe probe(spec,
                                  {common::demo_c_vm(), common::demo_c_vm()});
  const std::vector<StateVector> states(2, StateVector::cpu_only(1.0));
  const auto phi = core::nondet_shapley_values(
      states, [&](core::Coalition s, std::span<const StateVector> c) {
        return probe.worth(s.mask(), c);
      });
  // v1 = 13.15, v12 = 13.15 + 7.08 = 20.23 -> ~10.1 W each (Table III ideal).
  EXPECT_NEAR(phi[0], phi[1], 1e-9);
  EXPECT_NEAR(phi[0] + phi[1], probe.worth(0b11, states), 1e-9);
  EXPECT_NEAR(phi[0], 10.1, 0.2);
}

TEST(PaperShape, FullPipelineEfficiencyIsExact) {
  // 5-VM heterogeneous mix (the Fig. 11 fleet): the Shapley-VHC estimator's
  // shares must sum to the measured power at every sample.
  const sim::MachineSpec spec = sim::xeon_prototype();
  const auto catalogue = common::paper_vm_catalogue();
  const std::vector<common::VmConfig> fleet = {
      catalogue[0], catalogue[0], catalogue[1], catalogue[2], catalogue[3]};

  core::CollectionOptions options;
  options.duration_s = 120.0;
  const auto dataset = core::collect_offline_dataset(spec, fleet, options);
  core::ShapleyVhcEstimator estimator(dataset.universe, dataset.approximation);

  sim::PhysicalMachine machine(spec, 31);
  const auto benchmarks = wl::spec_subset();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto id = machine.hypervisor().create_vm(
        fleet[i], wl::make_spec_workload(benchmarks[i % benchmarks.size()],
                                         900 + i));
    machine.hypervisor().start_vm(id);
  }

  for (int t = 0; t < 60; ++t) {
    const auto frame = machine.step(1.0);
    const double adjusted =
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    const auto samples = machine.hypervisor().observations();
    const auto phi = estimator.estimate(samples, adjusted);
    const double total = std::accumulate(phi.begin(), phi.end(), 0.0);
    ASSERT_NEAR(total, adjusted, 1e-6) << "t=" << t;
  }
}

TEST(PaperShape, VhcShapleyTracksExactShapley) {
  // Fig. 10's headline: the VHC-approximated Shapley stays within a few
  // percent of the exact (oracle) Shapley most of the time.
  const sim::MachineSpec spec = sim::xeon_prototype();
  const auto catalogue = common::paper_vm_catalogue();
  const std::vector<common::VmConfig> fleet = {catalogue[0], catalogue[0],
                                               catalogue[1], catalogue[2]};

  core::CollectionOptions options;
  options.duration_s = 200.0;
  const auto dataset = core::collect_offline_dataset(spec, fleet, options);
  core::ShapleyVhcEstimator vhc(dataset.universe, dataset.approximation);

  std::vector<double> intensities;
  const wl::SpecBenchmark jobs[] = {
      wl::SpecBenchmark::kGcc, wl::SpecBenchmark::kSjeng,
      wl::SpecBenchmark::kNamd, wl::SpecBenchmark::kWrf};
  for (const auto job : jobs)
    intensities.push_back(wl::spec_profile(job).power_intensity);
  const sim::CoalitionProbe probe(spec, fleet, intensities);
  core::OracleShapleyEstimator oracle(probe, /*anchor=*/true);

  sim::PhysicalMachine machine(spec, 77);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto id = machine.hypervisor().create_vm(
        fleet[i], wl::make_spec_workload(jobs[i], 4242 + i));
    machine.hypervisor().start_vm(id);
  }

  util::RunningStats per_vm_error;
  for (int t = 0; t < 120; ++t) {
    const auto frame = machine.step(1.0);
    const double adjusted =
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    const auto samples = machine.hypervisor().observations();
    const auto approx = vhc.estimate(samples, adjusted);
    const auto exact = oracle.estimate(samples, adjusted);
    for (std::size_t i = 0; i < approx.size(); ++i)
      per_vm_error.add(util::relative_error(approx[i], exact[i], 1.0));
  }
  // Per-VM shares amplify worth-approximation error (they are differences
  // of worths); the paper's 90%-under-5% claim is about the v(S,C)
  // estimates themselves, which bench_fig10 verifies. Here we bound the
  // end-to-end per-VM tracking error.
  EXPECT_LT(per_vm_error.mean(), 0.13);
  EXPECT_LT(per_vm_error.max(), 0.45);
}

TEST(PaperShape, PowerModelAggregateErrorIsLarge) {
  // Fig. 11: summed per-VM model estimates exceed measured power by tens of
  // percent on the 5-VM mix.
  const sim::MachineSpec spec = sim::xeon_prototype();
  const auto catalogue = common::paper_vm_catalogue();
  base::TrainingOptions train;
  train.duration_s = 150.0;
  const auto models = base::train_catalogue_models(spec, catalogue, train);
  base::PowerModelEstimator pm(models);

  const std::vector<common::VmConfig> fleet = {
      catalogue[0], catalogue[0], catalogue[1], catalogue[2], catalogue[3]};
  sim::PhysicalMachine machine(spec, 13);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto id = machine.hypervisor().create_vm(
        fleet[i], std::make_unique<wl::BcFloatLoop>());
    machine.hypervisor().start_vm(id);
  }
  util::RunningStats errors;
  for (int t = 0; t < 60; ++t) {
    const auto frame = machine.step(1.0);
    const double adjusted =
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    const auto samples = machine.hypervisor().observations();
    const auto phi = pm.estimate(samples, adjusted);
    const double total = std::accumulate(phi.begin(), phi.end(), 0.0);
    errors.add((total - adjusted) / adjusted);
  }
  EXPECT_GT(errors.mean(), 0.15);  // large, systematic over-estimation
}

}  // namespace
}  // namespace vmp
