#include "baselines/trainer.hpp"

#include <stdexcept>

#include "sim/physical_machine.hpp"
#include "sim/runner.hpp"
#include "util/least_squares.hpp"
#include "workload/synthetic.hpp"

namespace vmp::base {

double VmPowerModel::predict(const common::StateVector& state) const {
  return state.dot(weights);
}

void TrainingOptions::validate() const {
  if (!(duration_s > 0.0))
    throw std::invalid_argument("TrainingOptions: duration must be > 0");
  if (!(period_s > 0.0))
    throw std::invalid_argument("TrainingOptions: period must be > 0");
}

VmPowerModel train_isolation_model(const sim::MachineSpec& spec,
                                   const common::VmConfig& config,
                                   const TrainingOptions& options) {
  options.validate();

  sim::PhysicalMachine machine(spec, options.seed ^ (config.type_id * 2654435761ULL));
  wl::WorkloadPtr workload;
  if (options.exercise_all_components) {
    workload = std::make_unique<wl::SyntheticRandomState>(options.seed + 17);
  } else {
    workload = std::make_unique<wl::SyntheticRandomCpu>(options.seed + 17);
  }
  const sim::VmId id = machine.hypervisor().create_vm(config, std::move(workload));
  machine.hypervisor().start_vm(id);

  const sim::ScenarioTrace trace =
      sim::run_scenario(machine, options.duration_s, options.period_s);

  util::Matrix design(trace.size(), common::kNumComponents);
  std::vector<double> target(trace.size());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    common::StateVector state{};
    if (!trace.vms[k].empty()) state = trace.vms[k].front().state;
    const auto values = state.values();
    for (std::size_t c = 0; c < common::kNumComponents; ++c)
      design(k, c) = values[c];
    target[k] =
        sim::adjusted_power_w(trace.measured_power[k], spec.idle_power_w);
  }

  const util::LeastSquaresResult fit = util::solve_ridge(design, target, 1e-9);

  VmPowerModel model;
  model.type = config.type_id;
  model.type_name = config.type_name;
  for (std::size_t c = 0; c < common::kNumComponents; ++c)
    model.weights[c] = fit.coefficients[c];
  return model;
}

std::vector<VmPowerModel> train_catalogue_models(
    const sim::MachineSpec& spec, const std::vector<common::VmConfig>& catalogue,
    const TrainingOptions& options) {
  std::vector<VmPowerModel> models;
  models.reserve(catalogue.size());
  for (const common::VmConfig& config : catalogue)
    models.push_back(train_isolation_model(spec, config, options));
  return models;
}

const VmPowerModel& model_for(const std::vector<VmPowerModel>& models,
                              common::VmTypeId type) {
  for (const VmPowerModel& model : models)
    if (model.type == type) return model;
  throw std::out_of_range("model_for: no model trained for this VM type");
}

}  // namespace vmp::base
