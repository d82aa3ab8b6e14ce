#include "core/collector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/physical_machine.hpp"
#include "sim/runner.hpp"
#include "util/logging.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace vmp::core {

void CollectionOptions::validate() const {
  if (!(duration_s > 0.0))
    throw std::invalid_argument("CollectionOptions: duration must be > 0");
  if (!(period_s > 0.0))
    throw std::invalid_argument("CollectionOptions: period must be > 0");
  if (!(resolution > 0.0))
    throw std::invalid_argument("CollectionOptions: resolution must be > 0");
  if (common_mode_prob < 0.0 || common_mode_prob > 1.0)
    throw std::invalid_argument(
        "CollectionOptions: common_mode_prob must be in [0, 1]");
  if (!(dwell_s > 0.0))
    throw std::invalid_argument("CollectionOptions: dwell must be > 0");
  // The campaign casts both step counts to size_t; that cast is undefined
  // for an infinite or >= 2^64 value.
  if (!(duration_s / dwell_s < 0x1p64 && duration_s / period_s < 0x1p64))
    throw std::invalid_argument(
        "CollectionOptions: duration must be finite and below 2^64 dwell "
        "epochs and sample periods");
  if (high_band_prob < 0.0 || high_band_prob > 1.0)
    throw std::invalid_argument(
        "CollectionOptions: high_band_prob must be in [0, 1]");
  if (high_band_lo < 0.0 || high_band_lo > 1.0)
    throw std::invalid_argument(
        "CollectionOptions: high_band_lo must be in [0, 1]");
}

namespace {

/// Pre-generates the synthetic campaign traces for one combination run:
/// per dwell epoch, either one common level for every VM or independent
/// levels (see CollectionOptions::common_mode_prob).
std::vector<std::vector<common::StateVector>> make_campaign_traces(
    std::size_t vm_count, const CollectionOptions& options, util::Rng& rng) {
  const auto epochs = static_cast<std::size_t>(
      std::ceil(options.duration_s / options.dwell_s)) + 1;
  std::vector<std::vector<common::StateVector>> traces(vm_count);
  for (auto& trace : traces) trace.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    const bool common_mode = rng.bernoulli(options.common_mode_prob);
    const double lo =
        rng.bernoulli(options.high_band_prob) ? options.high_band_lo : 0.0;
    const double common_level = rng.uniform(lo, 1.0);
    for (std::size_t i = 0; i < vm_count; ++i) {
      common::StateVector state = common::StateVector::cpu_only(
          common_mode ? common_level : rng.uniform(lo, 1.0));
      if (options.exercise_all_components) {
        state[common::Component::kMemory] = rng.uniform();
        state[common::Component::kDiskIo] = rng.uniform(0.0, 0.5);
      }
      traces[i].push_back(state);
    }
  }
  return traces;
}

}  // namespace

OfflineDataset collect_offline_dataset(const sim::MachineSpec& spec,
                                       const std::vector<common::VmConfig>& fleet,
                                       const CollectionOptions& options) {
  options.validate();
  if (fleet.empty())
    throw std::invalid_argument("collect_offline_dataset: empty fleet");

  VhcUniverse universe = VhcUniverse::from_fleet(fleet);
  VscTable table(universe.size(), options.resolution);
  std::vector<common::StateVector> aggregated(universe.size());

  // Traverse the 2^r - 1 non-empty VHC combinations (paper Sec. V-C-1).
  for (VhcComboMask combo = 1; combo < universe.combo_count(); ++combo) {
    sim::PhysicalMachine machine(spec, options.seed * 1315423911ULL + combo);

    // Boot the fleet; start only VMs whose type belongs to the combination.
    util::Rng campaign_rng(options.seed ^ (combo * 0x9E3779B9ULL));
    const auto traces =
        make_campaign_traces(fleet.size(), options, campaign_rng);
    std::vector<sim::VmId> started;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const common::VmConfig& config = fleet[i];
      const sim::VmId id = machine.hypervisor().create_vm(
          config, std::make_unique<wl::TraceWorkload>(traces[i],
                                                      options.dwell_s));
      const std::size_t vhc = universe.index_of(config.type_id);
      if ((combo & (VhcComboMask{1} << vhc)) != 0) {
        machine.hypervisor().start_vm(id);
        started.push_back(id);
      }
    }

    const sim::ScenarioTrace trace =
        sim::run_scenario(machine, options.duration_s, options.period_s);

    for (std::size_t k = 0; k < trace.size(); ++k) {
      const sim::DstatRecord& record = trace.states.records()[k];
      std::fill(aggregated.begin(), aggregated.end(),
                common::StateVector::zero());
      for (const sim::VmObservation& obs : record.observations)
        aggregated[universe.index_of(obs.type_id)] += obs.state;
      const double adjusted =
          std::max(0.0, trace.measured_power[k] - spec.idle_power_w);
      table.record(combo, aggregated, adjusted);
    }
    VMP_LOG_INFO("offline collection: combo %u -> %zu samples", combo,
                 trace.size());
  }

  VhcLinearApprox approximation = VhcLinearApprox::fit(table);
  return OfflineDataset{std::move(universe), std::move(table),
                        std::move(approximation)};
}

}  // namespace vmp::core
