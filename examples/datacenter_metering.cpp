// Datacenter metering: the paper's full Sec. VII-C deployment in one binary.
//
// A heterogeneous 5-VM fleet (2x VM1, VM2, VM3, VM4) runs a SPEC CPU2006-like
// mix on the Xeon prototype. The offline phase traverses the 2^4 VHC
// combinations; the online phase meters per-VM power every second with the
// Shapley estimator, cross-checks the meter against the simulated RAPL
// package counter, and prints a per-VM power/energy report.
#include <cstdio>
#include <memory>

#include "common/units.hpp"
#include "common/vm_config.hpp"
#include "core/accountant.hpp"
#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "sim/physical_machine.hpp"
#include "sim/rapl.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec_suite.hpp"

using namespace vmp;

int main() {
  const sim::MachineSpec spec = sim::xeon_prototype();
  const auto catalogue = common::paper_vm_catalogue();
  const std::vector<common::VmConfig> fleet = {
      catalogue[0], catalogue[0], catalogue[1], catalogue[2], catalogue[3]};
  const wl::SpecBenchmark jobs[] = {
      wl::SpecBenchmark::kGcc, wl::SpecBenchmark::kNamd,
      wl::SpecBenchmark::kSjeng, wl::SpecBenchmark::kOmnetpp,
      wl::SpecBenchmark::kWrf};

  std::printf("== offline phase: 2^4 VHC combinations ==\n");
  core::CollectionOptions options;
  options.duration_s = 400.0;
  const core::OfflineDataset dataset =
      core::collect_offline_dataset(spec, fleet, options);
  std::printf("   table: %zu samples, %zu combos fitted\n",
              dataset.table.total_samples(),
              dataset.approximation.fitted_combos().size());

  std::printf("== online phase: 10 minutes of SPEC mix ==\n");
  sim::PhysicalMachine machine(spec, /*seed=*/7);
  std::vector<sim::VmId> ids;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const sim::VmId id = machine.hypervisor().create_vm(
        fleet[i], wl::make_spec_workload(jobs[i], 5000 + i));
    machine.hypervisor().start_vm(id);
    ids.push_back(id);
  }

  core::ShapleyVhcEstimator estimator(dataset.universe, dataset.approximation);
  core::EnergyAccountant accountant(core::IdleAttribution::kProportional);
  // The simulated RAPL counters: integrated from the machine's true power
  // after every step, read back the way a host power agent reads MSRs.
  sim::MsrFile msr;
  sim::RaplSimulator rapl_counters(msr);
  sim::RaplReader rapl(msr);
  util::RunningStats meter_w, rapl_pkg_w;
  std::vector<util::RunningStats> phi_stats(fleet.size());

  const double horizon_s = 600.0;
  for (double t = 0.0; t < horizon_s; t += 1.0) {
    const sim::MeterFrame frame = machine.step(1.0);
    rapl_counters.accumulate(machine.true_power(), 1.0);
    const double adjusted =
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    meter_w.add(frame.active_power_w);
    rapl_pkg_w.add(rapl.average_power_w(sim::RaplDomain::kPackage, 1.0));

    const auto samples = machine.hypervisor().observations();
    const auto phi = estimator.estimate(samples, adjusted);
    for (std::size_t i = 0; i < phi.size(); ++i) phi_stats[i].add(phi[i]);
    accountant.add_sample(samples, phi, machine.idle_power_w(), 1.0);
  }

  std::printf("\n   wall meter: %.1f W avg;  RAPL package: %.1f W avg\n",
              meter_w.mean(), rapl_pkg_w.mean());

  util::TablePrinter table(
      {"VM", "type", "job", "avg power (W)", "energy (kWh)", "cost (USD)"});
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    table.add_row({"vm" + std::to_string(ids[i]), fleet[i].type_name,
                   std::string(to_string(jobs[i])),
                   util::TablePrinter::num(phi_stats[i].mean(), 2),
                   util::TablePrinter::num(
                       common::joules_to_kwh(accountant.energy_j(ids[i])), 5),
                   util::TablePrinter::num(accountant.bill_usd(ids[i], 0.10), 5)});
  }
  table.print();

  double phi_total = 0.0;
  for (const auto& s : phi_stats) phi_total += s.mean();
  std::printf("   efficiency check: sum of shares %.2f W vs adjusted meter "
              "%.2f W\n",
              phi_total, meter_w.mean() - machine.idle_power_w());
  return 0;
}
