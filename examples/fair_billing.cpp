// Fair billing: the paper's Fig. 1 motivation, taken all the way to dollars.
//
// Users A and B rent identical VM instances for the same interval [T0, T5]
// but load them differently; under per-instance-hour pricing both pay the
// same although B consumes ~33 % more energy. This example runs both VMs on
// one host, meters per-VM power with the Shapley estimator every second,
// accumulates energy with the EnergyAccountant (including an idle-power
// share, Sec. VIII) and prints the flat-rate vs energy-based bills.
#include <cstdio>
#include <memory>

#include "common/units.hpp"
#include "common/vm_config.hpp"
#include "core/accountant.hpp"
#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "core/pricing.hpp"
#include "sim/physical_machine.hpp"
#include "workload/user_pattern.hpp"

using namespace vmp;

int main() {
  const sim::MachineSpec spec = sim::xeon_prototype();
  const common::VmConfig instance = common::paper_vm_type(2);  // 2 vCPU class
  const std::vector<common::VmConfig> fleet = {instance, instance};

  std::printf("== training the estimator for the instance type ==\n");
  core::CollectionOptions options;
  options.duration_s = 300.0;
  const core::OfflineDataset dataset =
      core::collect_offline_dataset(spec, fleet, options);

  std::printf("== running user A and user B over [T0, T5] ==\n");
  sim::PhysicalMachine machine(spec, /*seed=*/2026);
  const sim::VmId vm_a =
      machine.hypervisor().create_vm(instance, wl::make_user_a_pattern());
  const sim::VmId vm_b =
      machine.hypervisor().create_vm(instance, wl::make_user_b_pattern());
  machine.hypervisor().start_vm(vm_a);
  machine.hypervisor().start_vm(vm_b);

  core::ShapleyVhcEstimator estimator(dataset.universe, dataset.approximation);
  core::EnergyAccountant dynamic_only(core::IdleAttribution::kNone);
  core::EnergyAccountant with_idle(core::IdleAttribution::kEqualShare);

  const double horizon_s = 5.0 * wl::kUserPatternPhaseSeconds;
  for (double t = 0.0; t < horizon_s; t += 1.0) {
    const sim::MeterFrame frame = machine.step(1.0);
    const double adjusted =
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    const auto samples = machine.hypervisor().observations();
    const auto phi = estimator.estimate(samples, adjusted);
    dynamic_only.add_sample(samples, phi, machine.idle_power_w(), 1.0);
    with_idle.add_sample(samples, phi, machine.idle_power_w(), 1.0);
  }

  const double kwh_a = common::joules_to_kwh(dynamic_only.energy_j(vm_a));
  const double kwh_b = common::joules_to_kwh(dynamic_only.energy_j(vm_b));
  std::printf("\n== results over %.0f minutes ==\n", horizon_s / 60.0);
  std::printf("   user A dynamic energy: %.4f kWh\n", kwh_a);
  std::printf("   user B dynamic energy: %.4f kWh  (%.0f%% more than A)\n",
              kwh_b, 100.0 * (kwh_b / kwh_a - 1.0));

  // Bills at the paper's 2015 US tariff. Flat-rate pricing ignores energy
  // entirely — both tenants pay the same; energy-based pricing charges the
  // metered share (idle split equally, Sec. VIII policy (i)).
  const double tariff = core::kUsTariffUsdPerKwh;
  const double flat = common::joules_to_kwh(with_idle.total_energy_j()) *
                      tariff / 2.0;
  std::printf("\n   flat-rate bill        : A $%.4f   B $%.4f\n", flat, flat);
  std::printf("   energy-metered bill   : A $%.4f   B $%.4f\n",
              with_idle.bill_usd(vm_a, tariff), with_idle.bill_usd(vm_b, tariff));
  std::printf("   (energy-metered: idle attributed per '%s')\n",
              to_string(with_idle.policy()));
  return 0;
}
