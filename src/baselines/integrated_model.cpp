#include "baselines/integrated_model.hpp"

#include <stdexcept>

#include "sim/physical_machine.hpp"
#include "util/least_squares.hpp"
#include "util/stats.hpp"
#include "workload/synthetic.hpp"

namespace vmp::base {

namespace {

double summed_cpu(const std::vector<common::VmSample>& vms) {
  double sum = 0.0;
  for (const common::VmSample& vm : vms) sum += vm.state.cpu();
  return sum;
}

}  // namespace

IntegratedModel train_integrated_model(const sim::MachineSpec& spec,
                                       const common::VmConfig& config,
                                       std::size_t vm_count,
                                       const IntegratedTrainingOptions& options) {
  if (vm_count == 0)
    throw std::invalid_argument("train_integrated_model: vm_count must be >= 1");
  if (!(options.duration_s > 0.0) || !(options.period_s > 0.0))
    throw std::invalid_argument("train_integrated_model: bad durations");

  sim::PhysicalMachine machine(spec, options.seed);
  for (std::size_t i = 0; i < vm_count; ++i) {
    const sim::VmId id = machine.hypervisor().create_vm(
        config, std::make_unique<wl::SyntheticRandomCpu>(options.seed + 31 * i));
    machine.hypervisor().start_vm(id);
  }
  const sim::ScenarioTrace trace =
      sim::run_scenario(machine, options.duration_s, options.period_s);

  // Regress measured power on [u', 1].
  util::Matrix design(trace.size(), 2);
  std::vector<double> target(trace.size());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    design(k, 0) = summed_cpu(trace.vms[k]);
    design(k, 1) = 1.0;
    target[k] = trace.measured_power[k];
  }
  const util::LeastSquaresResult fit = util::solve_least_squares(design, target);

  IntegratedModel model;
  model.slope_w = fit.coefficients[0];
  model.idle_w = fit.coefficients[1];
  return model;
}

double integrated_model_error(const IntegratedModel& model,
                              const sim::ScenarioTrace& trace) {
  if (trace.size() == 0)
    throw std::invalid_argument("integrated_model_error: empty trace");
  std::vector<double> errors;
  errors.reserve(trace.size());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const double predicted = model.predict_total(summed_cpu(trace.vms[k]));
    errors.push_back(util::relative_error(predicted, trace.measured_power[k]));
  }
  return util::mean(errors);
}

}  // namespace vmp::base
