// Ablations of the design choices behind the Shapley-VHC pipeline
// (DESIGN.md per-experiment index, §V ablation row):
//
//   A. offline measurement budget — how much synthetic collection time the
//      VHC fit needs before the Fig. 10 validation error flattens;
//   B. state-normalization resolution — the paper fixes 0.01; sweep it;
//   C. grand-coalition anchoring — the estimator option that makes
//      Efficiency exact vs trusting the approximation's own v(N, C');
//   D. the sampled tier's evaluation budget vs exact Shapley on oracle
//      worths — the escape hatch beyond the paper's n <= 16 regime;
//   E. per-combination weights (the paper's VHC model, 2^r campaigns) vs a
//      single shared weight set (linear-in-types cost; the Sec. VIII
//      "arbitrary VM types" extension);
//   F. Shapley vs normalized Banzhaf — why the paper's axiom set pins the
//      Shapley value specifically.
#include <cstdio>
#include <numeric>

#include "common/vm_config.hpp"
#include "core/banzhaf.hpp"
#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "core/shared_weights.hpp"
#include "core/shapley.hpp"
#include "core/shapley_sampled.hpp"
#include "sim/coalition_probe.hpp"
#include "sim/physical_machine.hpp"
#include "sim/runner.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec_suite.hpp"

using namespace vmp;

namespace {

const auto kCatalogue = common::paper_vm_catalogue();
const std::vector<common::VmConfig> kFleet = {kCatalogue[0], kCatalogue[0],
                                              kCatalogue[1], kCatalogue[2]};

// Mean relative error of the grand-coalition v(S,C) prediction on a SPEC
// validation run, for a dataset collected with the given options.
util::Summary validation_error(const core::OfflineDataset& dataset,
                               double duration_s, std::uint64_t seed) {
  const sim::MachineSpec spec = sim::xeon_prototype();
  sim::PhysicalMachine machine(spec, seed);
  const auto benchmarks = wl::spec_subset();
  for (std::size_t i = 0; i < kFleet.size(); ++i) {
    const auto id = machine.hypervisor().create_vm(
        kFleet[i],
        wl::make_spec_workload(benchmarks[i % benchmarks.size()], seed + i));
    machine.hypervisor().start_vm(id);
  }
  const auto trace = sim::run_scenario(machine, duration_s);
  const auto grand_combo =
      static_cast<core::VhcComboMask>((1u << dataset.universe.size()) - 1);
  std::vector<double> errors;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    std::vector<common::StateVector> agg(dataset.universe.size());
    for (const auto& obs : trace.states.records()[k].observations)
      agg[dataset.universe.index_of(obs.type_id)] += obs.state;
    const double predicted = dataset.approximation.predict(grand_combo, agg);
    const double measured =
        std::max(0.0, trace.measured_power[k] - spec.idle_power_w);
    errors.push_back(util::relative_error(predicted, measured));
  }
  return util::summarize(errors);
}

void ablation_budget() {
  util::print_banner(
      "Ablation A: offline collection budget per VHC combination");
  util::TablePrinter table({"seconds/combo", "table samples", "mean err",
                            "p90 err"});
  for (double budget : {30.0, 60.0, 120.0, 300.0, 600.0}) {
    core::CollectionOptions options;
    options.duration_s = budget;
    const auto dataset =
        core::collect_offline_dataset(sim::xeon_prototype(), kFleet, options);
    const auto summary = validation_error(dataset, 200.0, 4100);
    table.add_row({util::TablePrinter::num(budget, 0),
                   std::to_string(dataset.table.total_samples()),
                   util::TablePrinter::pct(summary.mean, 2),
                   util::TablePrinter::pct(summary.p90, 2)});
  }
  table.print();
  std::printf("expected: error flattens once each combo has a few hundred "
              "samples — the\npaper's 600 s per combo at 1 Hz is comfortably "
              "past the knee.\n");
}

void ablation_resolution() {
  util::print_banner("Ablation B: state-normalization resolution");
  util::TablePrinter table({"resolution", "mean err", "p90 err"});
  for (double resolution : {0.001, 0.01, 0.05, 0.1, 0.25}) {
    core::CollectionOptions options;
    options.duration_s = 300.0;
    options.resolution = resolution;
    const auto dataset =
        core::collect_offline_dataset(sim::xeon_prototype(), kFleet, options);
    const auto summary = validation_error(dataset, 200.0, 4200);
    table.add_row({util::TablePrinter::num(resolution, 3),
                   util::TablePrinter::pct(summary.mean, 2),
                   util::TablePrinter::pct(summary.p90, 2)});
  }
  table.print();
  std::printf("expected: the regression is robust to quantization well past "
              "the paper's\n0.01 — resolution mainly bounds table size, not "
              "accuracy.\n");
}

void ablation_anchor() {
  util::print_banner(
      "Ablation C: anchoring v(N,C') to the measurement (Efficiency)");
  const sim::MachineSpec spec = sim::xeon_prototype();
  core::CollectionOptions options;
  options.duration_s = 300.0;
  const auto dataset = core::collect_offline_dataset(spec, kFleet, options);
  core::ShapleyVhcEstimator anchored(dataset.universe, dataset.approximation,
                                     /*anchor=*/true);
  core::ShapleyVhcEstimator unanchored(dataset.universe, dataset.approximation,
                                       /*anchor=*/false);

  sim::PhysicalMachine machine(spec, 606);
  const auto benchmarks = wl::spec_subset();
  for (std::size_t i = 0; i < kFleet.size(); ++i) {
    const auto id = machine.hypervisor().create_vm(
        kFleet[i], wl::make_spec_workload(benchmarks[i], 606 + i));
    machine.hypervisor().start_vm(id);
  }
  util::RunningStats anchored_gap, unanchored_gap;
  for (int t = 0; t < 200; ++t) {
    const auto frame = machine.step(1.0);
    const double adjusted =
        std::max(0.0, frame.active_power_w - machine.idle_power_w());
    std::vector<core::VmSample> samples;
    for (const auto& obs : machine.hypervisor().observations())
      samples.push_back({obs.id, obs.type_id, obs.state});
    const auto a = anchored.estimate(samples, adjusted);
    const auto u = unanchored.estimate(samples, adjusted);
    anchored_gap.add(util::relative_error(
        std::accumulate(a.begin(), a.end(), 0.0), adjusted));
    unanchored_gap.add(util::relative_error(
        std::accumulate(u.begin(), u.end(), 0.0), adjusted));
  }
  util::TablePrinter table({"variant", "mean efficiency gap", "max gap"});
  table.add_row({"anchored (paper online mode)",
                 util::TablePrinter::pct(anchored_gap.mean(), 4),
                 util::TablePrinter::pct(anchored_gap.max(), 4)});
  table.add_row({"unanchored (pure approximation)",
                 util::TablePrinter::pct(unanchored_gap.mean(), 2),
                 util::TablePrinter::pct(unanchored_gap.max(), 2)});
  table.print();
  std::printf("expected: anchoring zeroes the efficiency gap; without it the "
              "gap equals the\nv(N,C') approximation error (a few percent).\n");
}

void ablation_sampled() {
  util::print_banner(
      "Ablation D: sampled-tier evaluation budget vs exact Shapley");
  // The 5-VM evaluation fleet at near-full load: the machine sits beyond the
  // turbo knee, so coalition worths carry higher-order (non-pairwise)
  // interactions and the sampler genuinely has to converge. The solver is
  // core::SampledShapley, the tier the estimator runs past its exact
  // kernels; the grand worth is anchored, as the estimator anchors it to
  // the measurement.
  const sim::MachineSpec spec = sim::xeon_prototype();
  const std::vector<common::VmConfig> fleet = {kCatalogue[0], kCatalogue[0],
                                               kCatalogue[1], kCatalogue[2],
                                               kCatalogue[3]};
  const std::size_t n = fleet.size();
  const sim::CoalitionProbe probe(spec, fleet);
  const std::vector<common::StateVector> states(
      n, common::StateVector::cpu_only(0.95));
  const core::SampledWorthFn worth = [&](std::uint64_t members) {
    return probe.worth(static_cast<sim::CoalitionMask>(members), states);
  };
  const auto exact = core::shapley_values(
      n, [&](core::Coalition s) { return worth(s.mask()); });
  const double grand = worth((std::uint64_t{1} << n) - 1);

  util::TablePrinter table({"max samples", "worth evals", "max |err| (W)",
                            "max rel err", "max CI half-width (W)",
                            "all inside CI"});
  for (std::size_t budget : {64u, 256u, 1024u, 4096u}) {
    core::SampledShapleyOptions options;
    options.seed = 5;
    options.max_samples = budget;
    const auto result = core::sampled_shapley_values(n, worth, grand, options);
    // The efficiency shift moves every VM by at most sum_halfwidth / n, the
    // same slack the tests allow on top of each VM's own half-width.
    const double shift_slack = result.sum_halfwidth_w / static_cast<double>(n);
    double max_abs = 0.0, max_rel = 0.0;
    bool inside = true;
    for (std::size_t i = 0; i < n; ++i) {
      const double err = std::abs(result.phi[i] - exact[i]);
      max_abs = std::max(max_abs, err);
      max_rel = std::max(max_rel, util::relative_error(result.phi[i], exact[i]));
      inside = inside && err <= result.halfwidth_w[i] + shift_slack;
    }
    table.add_row({std::to_string(budget),
                   std::to_string(result.worth_evaluations),
                   util::TablePrinter::num(max_abs, 3),
                   util::TablePrinter::pct(max_rel, 2),
                   util::TablePrinter::num(result.max_halfwidth_w, 3),
                   inside ? "yes" : "NO"});
  }
  table.print();
  std::printf("expected: error and half-width shrink ~1/sqrt(budget), and "
              "every VM's error\nstays inside its 3-sigma interval (plus the "
              "efficiency-shift slack).\n");
}

}  // namespace

void ablation_shared_weights() {
  util::print_banner(
      "Ablation E: per-combination weights vs shared weights (Sec. VIII)");
  core::CollectionOptions options;
  options.duration_s = 300.0;
  const auto dataset =
      core::collect_offline_dataset(sim::xeon_prototype(), kFleet, options);
  const auto shared = core::SharedWeightApprox::fit(dataset.table);

  // Validate both on the same SPEC run, predicting the grand coalition.
  const sim::MachineSpec spec = sim::xeon_prototype();
  sim::PhysicalMachine machine(spec, 4400);
  const auto benchmarks = wl::spec_subset();
  for (std::size_t i = 0; i < kFleet.size(); ++i) {
    const auto id = machine.hypervisor().create_vm(
        kFleet[i], wl::make_spec_workload(benchmarks[i], 4400 + i));
    machine.hypervisor().start_vm(id);
  }
  const auto trace = sim::run_scenario(machine, 200.0);
  const auto grand_combo =
      static_cast<core::VhcComboMask>((1u << dataset.universe.size()) - 1);
  util::RunningStats per_combo_err, shared_err;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    std::vector<common::StateVector> agg(dataset.universe.size());
    for (const auto& obs : trace.states.records()[k].observations)
      agg[dataset.universe.index_of(obs.type_id)] += obs.state;
    const double measured =
        std::max(0.0, trace.measured_power[k] - spec.idle_power_w);
    per_combo_err.add(util::relative_error(
        dataset.approximation.predict(grand_combo, agg), measured));
    shared_err.add(util::relative_error(shared.predict(agg), measured));
  }
  util::TablePrinter table(
      {"approximation", "offline campaigns", "mean err", "max err"});
  table.add_row({"per-combination (paper)",
                 "2^r - 1 = " + std::to_string(dataset.universe.combo_count() - 1),
                 util::TablePrinter::pct(per_combo_err.mean(), 2),
                 util::TablePrinter::pct(per_combo_err.max(), 2)});
  table.add_row({"shared weights (extension)", "r (singletons suffice)",
                 util::TablePrinter::pct(shared_err.mean(), 2),
                 util::TablePrinter::pct(shared_err.max(), 2)});
  table.print();
  std::printf("expected: shared weights cost a few points of accuracy (cross-"
              "VHC couplings\ncan no longer be absorbed per combination) in "
              "exchange for measurement cost\nlinear in the number of types — "
              "the trade the paper's Sec. VIII anticipates.\n");
}

void ablation_banzhaf() {
  util::print_banner(
      "Ablation F: Shapley vs normalized Banzhaf allocation");
  // Beyond the turbo knee the game has higher-order interactions, so the two
  // rules genuinely differ. (For purely pairwise games — this machine below
  // the knee — they coincide, which is itself worth knowing.)
  const sim::MachineSpec spec = sim::xeon_prototype();
  const std::vector<common::VmConfig> fleet = {kCatalogue[0], kCatalogue[0],
                                               kCatalogue[1], kCatalogue[2],
                                               kCatalogue[3]};
  const sim::CoalitionProbe probe(spec, fleet);
  const std::vector<common::StateVector> states(
      fleet.size(), common::StateVector::cpu_only(0.95));
  const core::WorthFn v = [&](core::Coalition s) {
    return probe.worth(s.mask(), states);
  };
  const double grand = v(core::Coalition::grand(fleet.size()));
  const auto shapley = core::shapley_values(fleet.size(), v);
  const auto banzhaf = core::normalized_banzhaf_values(fleet.size(), v, grand);
  const auto raw_banzhaf = core::banzhaf_values(fleet.size(), v);

  util::TablePrinter table({"VM", "type", "Shapley (W)",
                            "norm. Banzhaf (W)", "difference"});
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    table.add_row({"vm" + std::to_string(i), fleet[i].type_name,
                   util::TablePrinter::num(shapley[i], 3),
                   util::TablePrinter::num(banzhaf[i], 3),
                   util::TablePrinter::num(banzhaf[i] - shapley[i], 3)});
  }
  table.print();
  std::printf("both sum to v(N) = %.2f W here — but Banzhaf only because we "
              "rescaled it;\nraw Banzhaf sums to %.2f W. The rescaling step "
              "is ad hoc (it has no axiomatic\njustification), which is why "
              "the paper's Efficiency axiom singles out Shapley.\n",
              grand,
              std::accumulate(raw_banzhaf.begin(), raw_banzhaf.end(), 0.0));
}

int main() {
  ablation_budget();
  ablation_resolution();
  ablation_anchor();
  ablation_sampled();
  ablation_shared_weights();
  ablation_banzhaf();
  return 0;
}
