// Quickstart: disaggregate a machine's power into per-VM shares.
//
// Recreates the paper's Sec. III / Table III scenario end to end: two
// identical 1-vCPU VMs run the same fully-CPU-bound job on a hyper-threaded
// Xeon host. Their power interaction makes naive attributions either unfair
// (marginal contribution: 13 W vs 7 W) or inefficient (per-VM power models:
// 13 W + 13 W > 20 W measured); the Shapley allocation is both fair and
// efficient (10 W / 10 W).
//
// Pipeline shown:
//   1. offline: collect the v(S, C) table and fit the VHC approximation;
//   2. online: each second, feed VM telemetry + the measured power to the
//      ShapleyVhcEstimator.
#include <cstdio>
#include <memory>

#include "baselines/marginal.hpp"
#include "baselines/power_model.hpp"
#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "sim/coalition_probe.hpp"
#include "sim/physical_machine.hpp"
#include "util/stats.hpp"
#include "workload/synthetic.hpp"

using namespace vmp;

int main() {
  const sim::MachineSpec spec = [] {
    sim::MachineSpec s = sim::xeon_prototype();
    s.pack_affinity = 1.0;  // the paper's Fig. 4 machine co-scheduled siblings
    return s;
  }();
  const common::VmConfig c_vm = common::demo_c_vm();
  const std::vector<common::VmConfig> fleet = {c_vm, c_vm};

  std::printf("== offline: collecting v(S,C) table and fitting VHC model ==\n");
  core::CollectionOptions options;
  options.duration_s = 300.0;
  const core::OfflineDataset dataset =
      core::collect_offline_dataset(spec, fleet, options);
  std::printf("   %zu samples across %zu VHC combinations\n",
              dataset.table.total_samples(), dataset.table.combos().size());

  std::printf("== online: both VMs run the bc float loop at 100%% CPU ==\n");
  sim::PhysicalMachine machine(spec, /*seed=*/42);
  const sim::VmId a = machine.hypervisor().create_vm(
      c_vm, std::make_unique<wl::BcFloatLoop>());
  const sim::VmId b = machine.hypervisor().create_vm(
      c_vm, std::make_unique<wl::BcFloatLoop>());
  machine.hypervisor().start_vm(a);
  machine.hypervisor().start_vm(b);

  core::ShapleyVhcEstimator shapley(dataset.universe, dataset.approximation);
  const sim::CoalitionProbe probe(spec, fleet);
  base::MarginalContributionEstimator marginal(probe);

  util::RunningStats phi_a, phi_b, measured;
  for (int second = 0; second < 60; ++second) {
    const sim::MeterFrame frame = machine.step(1.0);
    const double adjusted =
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    measured.add(adjusted);

    const auto samples = machine.hypervisor().observations();

    const auto phi = shapley.estimate(samples, adjusted);
    phi_a.add(phi[0]);
    phi_b.add(phi[1]);

    if (second < 5) {
      std::printf("   t=%2ds meter=%.1f W (adj %.1f W)  Shapley: C_VM=%.2f W "
                  "C_VM'=%.2f W\n",
                  second + 1, frame.active_power_w, adjusted, phi[0], phi[1]);
    }
  }

  // The order-dependent marginal rule, for contrast (Table III row 1).
  const std::vector<common::StateVector> full_load(
      2, common::StateVector::cpu_only(1.0));
  std::vector<common::VmSample> at_full = {{0, c_vm.type_id, full_load[0]},
                                           {1, c_vm.type_id, full_load[1]}};
  const auto marginal_phi =
      marginal.estimate(at_full, probe.worth(0b11, full_load));

  std::printf("\n== Table III recap (60 s averages) ==\n");
  std::printf("   measured adjusted power : %6.2f W\n", measured.mean());
  std::printf("   Shapley                 : %6.2f W + %6.2f W = %6.2f W "
              "(fair and efficient)\n",
              phi_a.mean(), phi_b.mean(), phi_a.mean() + phi_b.mean());
  std::printf("   marginal contribution   : %6.2f W + %6.2f W  (efficient, "
              "unfair)\n",
              marginal_phi[0], marginal_phi[1]);
  return 0;
}
