// Ablations of the design choices behind the Shapley-VHC pipeline
// (DESIGN.md per-experiment index, §V ablation row):
//
//   A. offline measurement budget — how much synthetic collection time the
//      VHC fit needs before the Fig. 10 validation error flattens;
//   B. state-normalization resolution — the paper fixes 0.01; sweep it;
//   C. grand-coalition anchoring — the estimator option that makes
//      Efficiency exact vs trusting the approximation's own v(N, C');
//   D. the type-set kernel vs brute-force Shapley on all-distinct hosts —
//      the exact path beyond the paper's n <= 16 regime;
//   E. per-combination weights (the paper's VHC model, 2^r campaigns) vs a
//      single shared weight set (linear-in-types cost; the Sec. VIII
//      "arbitrary VM types" extension);
//   F. Shapley vs normalized Banzhaf — why the paper's axiom set pins the
//      Shapley value specifically.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>

#include "common/vm_config.hpp"
#include "core/banzhaf.hpp"
#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "core/shared_weights.hpp"
#include "core/shapley.hpp"
#include "sim/coalition_probe.hpp"
#include "sim/physical_machine.hpp"
#include "sim/runner.hpp"
#include "util/rng.hpp"
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
    for (const auto& vm : trace.vms[k])
      agg[dataset.universe.index_of(vm.type)] += vm.state;
    const double predicted = dataset.approximation.predict(grand_combo, agg);
    const double measured =
        sim::adjusted_power_w(trace.measured_power[k], spec.idle_power_w);
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
        sim::adjusted_power_w(frame.active_power_w, machine.idle_power_w());
    const auto samples = machine.hypervisor().observations();
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

void ablation_typeset() {
  util::print_banner("Ablation D: type-set kernel vs brute-force Shapley");
  // One approximation fitted on the paper's four VM types, and hosts of n
  // busy VMs with pairwise-distinct states, where symmetry collapse cannot
  // help. The estimator's type-set kernel and brute force over 2^n
  // coalitions answer the same anchored regression game, so they must agree
  // to rounding; brute force's cost doubles per VM, the type-set kernel's
  // grows with the n × 2^4 contribution table.
  const std::vector<common::VmConfig> types = {kCatalogue[0], kCatalogue[1],
                                               kCatalogue[2], kCatalogue[3]};
  core::CollectionOptions options;
  options.duration_s = 60.0;
  const auto dataset =
      core::collect_offline_dataset(sim::xeon_prototype(), types, options);
  util::Rng rng(404);
  const auto random_state = [&] {
    common::StateVector state;
    for (std::size_t c = 0; c < common::kNumComponents; ++c)
      state[static_cast<common::Component>(c)] = rng.uniform(0.05, 1.0);
    return state;
  };
  const auto micros_of = [](const auto& call) {
    const auto start = std::chrono::steady_clock::now();
    call();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  // The estimator's worth game: the regression's v(S, C), v(N) anchored to
  // the measurement (every VM is busy, so none drops out).
  const auto brute_force = [&](const std::vector<common::VmSample>& vms,
                               double measured) {
    std::vector<common::VmTypeId> vm_types;
    std::vector<common::StateVector> states;
    for (const common::VmSample& vm : vms) {
      vm_types.push_back(vm.type);
      states.push_back(vm.state);
    }
    const core::VhcPartition partition(dataset.universe, vm_types);
    const core::Coalition grand = core::Coalition::grand(vms.size());
    return core::shapley_values(vms.size(), [&](core::Coalition s) {
      if (s == grand) return measured;
      if (s.is_empty()) return 0.0;
      return dataset.approximation.predict(partition.combo_of(s),
                                           partition.aggregate(s, states));
    });
  };

  constexpr int kTicks = 20;
  util::TablePrinter table({"VMs", "brute force (us/tick)",
                            "type-set (us/tick)", "max |dphi| (W)"});
  for (const std::size_t n : {8u, 12u, 16u, 32u, 64u}) {
    const bool with_reference = n <= 16;
    core::ShapleyVhcEstimator typeset(dataset.universe,
                                      dataset.approximation);
    std::vector<std::vector<common::VmSample>> ticks(kTicks);
    std::vector<double> measured(kTicks);
    for (int tick = 0; tick < kTicks; ++tick) {
      for (std::size_t i = 0; i < n; ++i)
        ticks[tick].push_back({static_cast<std::uint32_t>(i),
                               types[i % types.size()].type_id,
                               random_state()});
      measured[tick] = rng.uniform(20.0, 120.0);
    }
    // Each side runs its ticks back to back, so neither pays for the
    // other's cache footprint.
    std::vector<std::vector<double>> fast(kTicks), exact(kTicks);
    const double typeset_us = micros_of([&] {
      for (int tick = 0; tick < kTicks; ++tick)
        fast[tick] = typeset.estimate(ticks[tick], measured[tick]);
    });
    const double reference_us = !with_reference ? 0.0 : micros_of([&] {
      for (int tick = 0; tick < kTicks; ++tick)
        exact[tick] = brute_force(ticks[tick], measured[tick]);
    });
    double max_diff = 0.0;
    for (int tick = 0; with_reference && tick < kTicks; ++tick)
      for (std::size_t i = 0; i < n; ++i)
        max_diff = std::max(max_diff, std::abs(fast[tick][i] - exact[tick][i]));
    char diff[32] = "-";
    if (with_reference) std::snprintf(diff, sizeof diff, "%.1e", max_diff);
    table.add_row(
        {std::to_string(n),
         with_reference ? util::TablePrinter::num(reference_us / kTicks, 1)
                        : "-",
         util::TablePrinter::num(typeset_us / kTicks, 1), diff});
  }
  table.print();
  std::printf("expected: the two agree to ~1e-11 W; brute force's cost "
              "doubles per VM\nwhile the type-set kernel stays in "
              "microseconds up to 64 VMs.\n");
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
    for (const auto& vm : trace.vms[k])
      agg[dataset.universe.index_of(vm.type)] += vm.state;
    const double measured =
        sim::adjusted_power_w(trace.measured_power[k], spec.idle_power_w);
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
  ablation_typeset();
  ablation_shared_weights();
  ablation_banzhaf();
  return 0;
}
