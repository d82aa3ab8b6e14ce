// Reproduces Fig. 10: accuracy of the VHC-based linear approximation of
// v(S, C).
//
// Setup mirrors Sec. VII-B: mapping vectors are fitted from synthetic
// random-CPU runs, then validated by running the SPEC CPU2006 subset
// (Table V) on (a) a homogeneous coalition of four VM1s and (b) a
// heterogeneous coalition {VM1..VM4}, comparing the predicted v(S, C)
// against the measured (idle-adjusted) machine power sample by sample.
//
// Paper: per-benchmark average relative errors < 5.33 %, ~90 % of samples
// below 5 %, maximum 11.71 %.
#include <cstdio>
#include <vector>

#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "sim/physical_machine.hpp"
#include "sim/runner.hpp"
#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec_suite.hpp"

using namespace vmp;

namespace {

struct CaseResult {
  std::vector<double> errors;  // pooled over all benchmarks
};

// Validates the fitted approximation on one benchmark: every VM of the fleet
// runs `benchmark`; returns per-sample relative errors of the predicted
// grand-coalition worth vs the measured adjusted power.
std::vector<double> validate_benchmark(const sim::MachineSpec& spec,
                                       const std::vector<common::VmConfig>& fleet,
                                       const core::OfflineDataset& dataset,
                                       wl::SpecBenchmark benchmark,
                                       double duration_s, std::uint64_t seed) {
  sim::PhysicalMachine machine(spec, seed);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto id = machine.hypervisor().create_vm(
        fleet[i], wl::make_spec_workload(benchmark, seed * 131 + i));
    machine.hypervisor().start_vm(id);
  }
  const sim::ScenarioTrace trace = sim::run_scenario(machine, duration_s);

  const core::VhcComboMask grand_combo =
      static_cast<core::VhcComboMask>((1u << dataset.universe.size()) - 1);
  std::vector<double> errors;
  errors.reserve(trace.size());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    std::vector<common::StateVector> aggregated(dataset.universe.size());
    for (const auto& vm : trace.vms[k])
      aggregated[dataset.universe.index_of(vm.type)] += vm.state;
    const double predicted =
        dataset.approximation.predict(grand_combo, aggregated);
    const double measured =
        sim::adjusted_power_w(trace.measured_power[k], spec.idle_power_w);
    errors.push_back(util::relative_error(predicted, measured));
  }
  return errors;
}

CaseResult run_case(const char* title,
                    const std::vector<common::VmConfig>& fleet,
                    const char* paper_note) {
  const sim::MachineSpec spec = sim::xeon_prototype();

  core::CollectionOptions options;
  options.duration_s = 600.0;
  const core::OfflineDataset dataset =
      core::collect_offline_dataset(spec, fleet, options);

  util::print_banner(title);
  std::printf("fitted CPU mapping weights per VHC (grand combo): ");
  const core::VhcComboMask grand_combo =
      static_cast<core::VhcComboMask>((1u << dataset.universe.size()) - 1);
  const auto weights = dataset.approximation.weights(grand_combo);
  for (std::size_t j = 0; j < dataset.universe.size(); ++j)
    std::printf("w%zu=%.2f ", j + 1, weights[j * common::kNumComponents]);
  std::printf("\n%s\n\n", paper_note);

  CaseResult result;
  util::TablePrinter table({"benchmark", "mean err", "p90 err", "max err",
                            "<5% of samples"});
  std::uint64_t seed = 9000;
  for (const wl::SpecBenchmark benchmark : wl::spec_subset()) {
    const auto errors =
        validate_benchmark(spec, fleet, dataset, benchmark, 300.0, ++seed);
    const util::Summary summary = util::summarize(errors);
    table.add_row({to_string(benchmark),
                   util::TablePrinter::pct(summary.mean, 2),
                   util::TablePrinter::pct(summary.p90, 2),
                   util::TablePrinter::pct(summary.max, 2),
                   util::TablePrinter::pct(
                       util::fraction_below(errors, 0.05), 1)});
    result.errors.insert(result.errors.end(), errors.begin(), errors.end());
  }
  table.print();
  return result;
}

}  // namespace

int main() {
  const auto catalogue = common::paper_vm_catalogue();

  const CaseResult homogeneous = run_case(
      "Fig. 10(a): homogeneous coalition (4 x VM1)",
      {catalogue[0], catalogue[0], catalogue[0], catalogue[0]},
      "paper fitted w1 = 9.42 for this case (per-unit weight < 13.15 because "
      "of\nsibling contention)");

  const CaseResult heterogeneous = run_case(
      "Fig. 10(b): heterogeneous coalition {VM1, VM2, VM3, VM4}",
      {catalogue[0], catalogue[1], catalogue[2], catalogue[3]},
      "paper fitted [w1..w4] = [16.98, 17.91, 23.42, 75.21]");

  // Fig. 10(c): pooled error distribution.
  std::vector<double> pooled = homogeneous.errors;
  pooled.insert(pooled.end(), heterogeneous.errors.begin(),
                heterogeneous.errors.end());
  const util::Summary summary = util::summarize(pooled);

  util::print_banner("Fig. 10(c): distribution of relative errors (pooled)");
  util::Histogram histogram(0.0, 0.15, 15);
  histogram.add_all(pooled);
  std::fputs(histogram.render().c_str(), stdout);

  const double below5 = util::fraction_below(pooled, 0.05);
  std::printf("\nsamples: %zu   mean=%.2f%%  p90=%.2f%%  max=%.2f%%  "
              "<5%%: %.1f%%\n",
              summary.count, 100.0 * summary.mean, 100.0 * summary.p90,
              100.0 * summary.max, 100.0 * below5);
  std::printf("paper: max 11.71%%, ~90%% of estimations below 5%% error, "
              "per-benchmark\naverages below 5.33%%.\n");

  util::CsvWriter csv("fig10_errors.csv", {"error"});
  for (double e : pooled) csv.write_row(std::vector<double>{e});
  std::printf("raw errors written to fig10_errors.csv (%zu rows)\n",
              pooled.size());
  return 0;
}
