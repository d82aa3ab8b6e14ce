// Reproduces Fig. 11: macro-level accuracy of the aggregated per-VM power
// estimates on the 5-VM evaluation fleet (2 x VM1, VM2, VM3, VM4).
//
// The summed power-model estimates drift far above the measured
// (idle-adjusted) machine power — the paper reports an average relative
// error of 56.43 % — while the Shapley-based estimates track the
// measurement exactly (Efficiency holds even with approximated v(S, C)s).
#include <cstdio>
#include <memory>
#include <numeric>

#include "baselines/power_model.hpp"
#include "baselines/trainer.hpp"
#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "sim/physical_machine.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec_suite.hpp"

using namespace vmp;

int main() {
  const sim::MachineSpec spec = sim::xeon_prototype();
  const auto catalogue = common::paper_vm_catalogue();
  const std::vector<common::VmConfig> fleet = {
      catalogue[0], catalogue[0], catalogue[1], catalogue[2], catalogue[3]};

  // Offline artifacts for both estimators.
  core::CollectionOptions options;
  options.duration_s = 600.0;
  const auto dataset = core::collect_offline_dataset(spec, fleet, options);
  core::ShapleyVhcEstimator shapley(dataset.universe, dataset.approximation);

  base::TrainingOptions train;
  train.duration_s = 600.0;
  const auto models = base::train_catalogue_models(spec, catalogue, train);
  base::PowerModelEstimator power_model(models);

  // Online: the SPEC mix on all five VMs. The paper's run stresses every VM
  // to high utilization, where the contention gap is widest.
  sim::PhysicalMachine machine(spec, 11);
  const wl::SpecBenchmark jobs[] = {
      wl::SpecBenchmark::kSjeng, wl::SpecBenchmark::kNamd,
      wl::SpecBenchmark::kGobmk, wl::SpecBenchmark::kTonto,
      wl::SpecBenchmark::kWrf};
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto id = machine.hypervisor().create_vm(
        fleet[i], wl::make_spec_workload(jobs[i], 7100 + i));
    machine.hypervisor().start_vm(id);
  }

  util::CsvWriter csv("fig11_power.csv",
                      {"t", "measured_adjusted", "shapley_sum",
                       "power_model_sum"});
  util::RunningStats shapley_err, model_err, measured_power;
  const int horizon_s = 600;
  for (int t = 1; t <= horizon_s; ++t) {
    const auto frame = machine.step(1.0);
    const double adjusted =
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    measured_power.add(adjusted);

    const auto samples = machine.hypervisor().observations();

    const auto phi_shapley = shapley.estimate(samples, adjusted);
    const auto phi_model = power_model.estimate(samples, adjusted);
    const double sum_shapley =
        std::accumulate(phi_shapley.begin(), phi_shapley.end(), 0.0);
    const double sum_model =
        std::accumulate(phi_model.begin(), phi_model.end(), 0.0);

    shapley_err.add(util::relative_error(sum_shapley, adjusted));
    model_err.add(util::relative_error(sum_model, adjusted));
    csv.write_row(std::vector<double>{static_cast<double>(t), adjusted,
                                      sum_shapley, sum_model});

    if (t <= 5 || t % 120 == 0)
      std::printf("t=%4ds  measured=%6.1f W  Shapley sum=%6.1f W  "
                  "power-model sum=%6.1f W\n",
                  t, adjusted, sum_shapley, sum_model);
  }

  util::print_banner("Fig. 11: aggregated power estimation accuracy");
  util::TablePrinter table({"estimator", "avg relative error", "paper"});
  table.add_row({"Shapley value-based",
                 util::TablePrinter::pct(shapley_err.mean(), 3),
                 "0% (always consistent)"});
  table.add_row({"power model-based",
                 util::TablePrinter::pct(model_err.mean(), 2), "56.43%"});
  table.print();
  std::printf("\nmean measured adjusted power: %.1f W over %d s; series "
              "written to\nfig11_power.csv. Shapley satisfies Efficiency even "
              "though its v(S,C) inputs\nare approximations (Sec. VII-C).\n",
              measured_power.mean(), horizon_s);
  return 0;
}
