// Reproduces Fig. 12: per-VM allocations of one sample instant from the
// Fig. 11 run, comparing (I) the measured aggregated power, (II) the
// Shapley-based shares, (III) resource-usage-based shares, and (IV) raw
// power-model shares.
//
// Paper observations to verify: III is a rescaled II's competitor — the
// resource-usage and power-model allocations share the same *proportions*
// (III = IV rescaled to the measurement), and only II and III sum to the
// measured power, while the Shapley split differs from both.
#include <cstdio>
#include <numeric>

#include "baselines/power_model.hpp"
#include "baselines/rapl_share.hpp"
#include "baselines/resource_usage.hpp"
#include "baselines/trainer.hpp"
#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "sim/physical_machine.hpp"
#include "util/table.hpp"
#include "workload/spec_suite.hpp"

using namespace vmp;

int main() {
  const sim::MachineSpec spec = sim::xeon_prototype();
  const auto catalogue = common::paper_vm_catalogue();
  const std::vector<common::VmConfig> fleet = {
      catalogue[0], catalogue[0], catalogue[1], catalogue[2], catalogue[3]};

  core::CollectionOptions options;
  options.duration_s = 400.0;
  const auto dataset = core::collect_offline_dataset(spec, fleet, options);
  core::ShapleyVhcEstimator shapley(dataset.universe, dataset.approximation);

  base::TrainingOptions train;
  train.duration_s = 400.0;
  const auto models = base::train_catalogue_models(spec, catalogue, train);
  base::PowerModelEstimator power_model(models);
  base::ResourceUsageEstimator resource_usage(models);
  base::RaplShareEstimator rapl_share(catalogue);  // extension comparator

  // Run the Fig. 11 workload and freeze one representative sample.
  sim::PhysicalMachine machine(spec, 11);
  const wl::SpecBenchmark jobs[] = {
      wl::SpecBenchmark::kSjeng, wl::SpecBenchmark::kNamd,
      wl::SpecBenchmark::kGobmk, wl::SpecBenchmark::kTonto,
      wl::SpecBenchmark::kWrf};
  std::vector<sim::VmId> ids;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto id = machine.hypervisor().create_vm(
        fleet[i], wl::make_spec_workload(jobs[i], 7100 + i));
    machine.hypervisor().start_vm(id);
    ids.push_back(id);
  }
  double adjusted = 0.0;
  std::vector<common::VmSample> samples;
  for (int t = 0; t < 100; ++t) {  // settle into mid-run, then sample
    const auto frame = machine.step(1.0);
    adjusted =
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    samples = machine.hypervisor().observations();
  }

  const auto phi_shapley = shapley.estimate(samples, adjusted);
  const auto phi_usage = resource_usage.estimate(samples, adjusted);
  const auto phi_model = power_model.estimate(samples, adjusted);
  const auto phi_rapl = rapl_share.estimate(samples, adjusted);

  util::print_banner(
      "Fig. 12: per-VM estimation of one sample (I measured, II Shapley, "
      "III resource-usage, IV power model)");
  std::printf("I: measured aggregated power (idle deducted): %.2f W\n\n",
              adjusted);
  util::TablePrinter table({"VM", "type", "job", "cpu util", "II Shapley (W)",
                            "III res-usage (W)", "IV power-model (W)",
                            "V rapl-prop (ext, W)"});
  for (std::size_t i = 0; i < samples.size(); ++i) {
    table.add_row({"vm" + std::to_string(ids[i]), fleet[i].type_name,
                   std::string(to_string(jobs[i])),
                   util::TablePrinter::num(samples[i].state.cpu(), 2),
                   util::TablePrinter::num(phi_shapley[i], 2),
                   util::TablePrinter::num(phi_usage[i], 2),
                   util::TablePrinter::num(phi_model[i], 2),
                   util::TablePrinter::num(phi_rapl[i], 2)});
  }
  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  table.add_row({"sum", "", "", "", util::TablePrinter::num(sum(phi_shapley), 2),
                 util::TablePrinter::num(sum(phi_usage), 2),
                 util::TablePrinter::num(sum(phi_model), 2),
                 util::TablePrinter::num(sum(phi_rapl), 2)});
  table.print();

  std::printf("\nchecks (paper Sec. VII-C):\n");
  std::printf(" * III and IV share the same proportions (III is IV rescaled "
              "to I): vm0/vm4\n   ratio III = %.4f vs IV = %.4f\n",
              phi_usage[0] / phi_usage[4], phi_model[0] / phi_model[4]);
  std::printf(" * II and III sum to the measurement; IV oversubscribes by "
              "%.1f%%\n",
              100.0 * (sum(phi_model) - adjusted) / adjusted);
  std::printf(" * II (Shapley) allocates differently from III/IV — it credits "
              "contention\n   declines to the VMs that cause them.\n");
  return 0;
}
