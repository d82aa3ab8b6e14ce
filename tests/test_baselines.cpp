#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>

#include "baselines/integrated_model.hpp"
#include "baselines/marginal.hpp"
#include "baselines/power_model.hpp"
#include "baselines/resource_usage.hpp"
#include "baselines/trainer.hpp"
#include "common/vm_config.hpp"
#include "sim/physical_machine.hpp"
#include "sim/runner.hpp"
#include "workload/synthetic.hpp"

namespace vmp::base {
namespace {

using common::StateVector;
using common::VmSample;

sim::MachineSpec quiet_spec() {
  sim::MachineSpec spec = sim::xeon_prototype();
  spec.meter_noise_sigma_w = 0.0;
  spec.meter_quantum_w = 0.0;
  spec.affinity_jitter = 0.0;
  return spec;
}

std::vector<VmPowerModel> paper_models() {
  // Hand-built Table IV-style models; tests of the trainer itself fit their
  // own below.
  std::vector<VmPowerModel> models(2);
  models[0].type = 0;
  models[0].type_name = "VM1";
  models[0].weights = {13.15, 0.0, 0.0, 0.0};
  models[1].type = 1;
  models[1].type_name = "VM2";
  models[1].weights = {22.53, 0.0, 0.0, 0.0};
  return models;
}

TEST(VmPowerModel, PredictIsLinearInState) {
  const auto models = paper_models();
  EXPECT_DOUBLE_EQ(models[0].predict(StateVector::cpu_only(1.0)), 13.15);
  EXPECT_DOUBLE_EQ(models[0].predict(StateVector::cpu_only(0.5)), 6.575);
  EXPECT_DOUBLE_EQ(models[0].predict(StateVector::zero()), 0.0);
  EXPECT_DOUBLE_EQ(models[0].cpu_coefficient(), 13.15);
}

TEST(ModelFor, FindsByTypeOrThrows) {
  const auto models = paper_models();
  EXPECT_EQ(model_for(models, 1).type_name, "VM2");
  EXPECT_THROW(model_for(models, 9), std::out_of_range);
}

TEST(Trainer, IsolationModelMatchesThreadPower) {
  TrainingOptions options;
  options.duration_s = 150.0;
  const VmPowerModel model =
      train_isolation_model(quiet_spec(), common::paper_vm_type(1), options);
  EXPECT_NEAR(model.cpu_coefficient(), 13.15, 0.1);
  EXPECT_EQ(model.type, common::paper_vm_type(1).type_id);
}

TEST(Trainer, MultiVcpuTypesAreSubLinear) {
  // Table IV's signature: coefficients grow sub-linearly in vCPUs because of
  // partial sibling packing.
  TrainingOptions options;
  options.duration_s = 150.0;
  const auto models =
      train_catalogue_models(quiet_spec(), common::paper_vm_catalogue(), options);
  ASSERT_EQ(models.size(), 4u);
  const double w1 = models[0].cpu_coefficient();
  EXPECT_LT(models[1].cpu_coefficient(), 2.0 * w1);
  EXPECT_LT(models[2].cpu_coefficient(), 4.0 * w1);
  EXPECT_LT(models[3].cpu_coefficient(), 8.0 * w1);
  EXPECT_GT(models[3].cpu_coefficient(), 6.0 * w1);
}

TEST(Trainer, OptionsValidation) {
  TrainingOptions options;
  options.duration_s = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.period_s = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
}

TEST(PowerModelEstimator, PureModelReadout) {
  PowerModelEstimator estimator(paper_models());
  const std::vector<VmSample> vms = {{0, 0, StateVector::cpu_only(1.0)},
                                     {1, 1, StateVector::cpu_only(0.5)}};
  // adjusted power is ignored by design.
  const auto phi = estimator.estimate(vms, 3.0);
  EXPECT_DOUBLE_EQ(phi[0], 13.15);
  EXPECT_DOUBLE_EQ(phi[1], 11.265);
}

TEST(PowerModelEstimator, ViolatesEfficiencyUnderContention) {
  // The Sec. III failure: two identical VMs at 100 % sum to 26.3 W by the
  // model while the machine only draws ~20 W.
  PowerModelEstimator estimator(paper_models());
  const std::vector<VmSample> vms = {{0, 0, StateVector::cpu_only(1.0)},
                                     {1, 0, StateVector::cpu_only(1.0)}};
  const double measured = 20.2;
  const auto phi = estimator.estimate(vms, measured);
  EXPECT_GT(phi[0] + phi[1], measured + 5.0);
}

TEST(PowerModelEstimator, Validation) {
  EXPECT_THROW(PowerModelEstimator({}), std::invalid_argument);
  PowerModelEstimator estimator(paper_models());
  EXPECT_THROW(estimator.estimate({}, 0.0), std::invalid_argument);
}

TEST(ResourceUsageEstimator, EfficientByConstruction) {
  ResourceUsageEstimator estimator(paper_models());
  const std::vector<VmSample> vms = {{0, 0, StateVector::cpu_only(1.0)},
                                     {1, 0, StateVector::cpu_only(1.0)}};
  const auto phi = estimator.estimate(vms, 20.2);
  EXPECT_NEAR(phi[0] + phi[1], 20.2, 1e-9);
  EXPECT_NEAR(phi[0], phi[1], 1e-9);
}

TEST(ResourceUsageEstimator, ProportionsMatchPowerModel) {
  // The paper's Fig. 12 observation: resource-usage allocation is a rescaled
  // power-model allocation.
  PowerModelEstimator pm(paper_models());
  ResourceUsageEstimator ru(paper_models());
  const std::vector<VmSample> vms = {{0, 0, StateVector::cpu_only(0.8)},
                                     {1, 1, StateVector::cpu_only(0.6)}};
  const auto pm_phi = pm.estimate(vms, 15.0);
  const auto ru_phi = ru.estimate(vms, 15.0);
  EXPECT_NEAR(pm_phi[0] / pm_phi[1], ru_phi[0] / ru_phi[1], 1e-9);
}

TEST(ResourceUsageEstimator, AllIdleSplitsEqually) {
  ResourceUsageEstimator estimator(paper_models());
  const std::vector<VmSample> vms = {{0, 0, StateVector::zero()},
                                     {1, 0, StateVector::zero()}};
  const auto phi = estimator.estimate(vms, 1.0);
  EXPECT_DOUBLE_EQ(phi[0], 0.5);
  EXPECT_DOUBLE_EQ(phi[1], 0.5);
}

TEST(ResourceUsageEstimator, Validation) {
  ResourceUsageEstimator estimator(paper_models());
  const std::vector<VmSample> vms = {{0, 0, StateVector::cpu_only(1.0)}};
  EXPECT_THROW(estimator.estimate(vms, -1.0), std::invalid_argument);
  EXPECT_THROW(
      estimator.estimate(vms, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(
      estimator.estimate(vms, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
  EXPECT_THROW(estimator.estimate({}, 1.0), std::invalid_argument);
}

TEST(MarginalEstimator, OrderDependence) {
  sim::MachineSpec spec = quiet_spec();
  spec.pack_affinity = 1.0;
  spec.llc_contention_w = 0.0;
  const sim::CoalitionProbe probe(spec,
                                  {common::demo_c_vm(), common::demo_c_vm()});
  const std::vector<VmSample> vms = {{0, 0, StateVector::cpu_only(1.0)},
                                     {1, 0, StateVector::cpu_only(1.0)}};
  MarginalContributionEstimator first_then_second(probe, {0, 1});
  MarginalContributionEstimator second_then_first(probe, {1, 0});
  const auto a = first_then_second.estimate(vms, 0.0);
  const auto b = second_then_first.estimate(vms, 0.0);
  // The first arrival is charged 13.15, the second the contended remainder.
  EXPECT_NEAR(a[0], 13.15, 1e-9);
  EXPECT_NEAR(a[1], 13.15 * (1.0 - spec.smt_contention), 1e-9);
  EXPECT_NEAR(b[1], 13.15, 1e-9);
  EXPECT_NEAR(b[0], 13.15 * (1.0 - spec.smt_contention), 1e-9);
  // Either order is efficient (telescoping).
  EXPECT_NEAR(a[0] + a[1], b[0] + b[1], 1e-9);
}

TEST(MarginalEstimator, Validation) {
  const sim::CoalitionProbe probe(quiet_spec(), {common::demo_c_vm()});
  EXPECT_THROW(MarginalContributionEstimator(probe, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW(MarginalContributionEstimator(probe, {1}),
               std::invalid_argument);
  MarginalContributionEstimator estimator(probe);
  const std::vector<VmSample> wrong = {{0, 0, StateVector::cpu_only(1.0)},
                                       {1, 0, StateVector::cpu_only(1.0)}};
  EXPECT_THROW(estimator.estimate(wrong, 0.0), std::invalid_argument);
}

TEST(IntegratedModel, RecoversSlopeAndIdle) {
  IntegratedTrainingOptions options;
  options.duration_s = 200.0;
  const IntegratedModel model =
      train_integrated_model(quiet_spec(), common::demo_c_vm(), 2, options);
  EXPECT_NEAR(model.idle_w, quiet_spec().idle_power_w, 1.0);
  EXPECT_GT(model.slope_w, 9.0);
  EXPECT_LT(model.slope_w, 14.0);
  EXPECT_DOUBLE_EQ(model.predict_total(0.0), model.idle_w);
}

TEST(IntegratedModel, LowErrorOnHeldOutRun) {
  // The Fig. 3 claim: ~2 % machine-level error.
  const sim::MachineSpec spec = sim::xeon_prototype();  // with noise/jitter
  IntegratedTrainingOptions options;
  options.duration_s = 300.0;
  const IntegratedModel model =
      train_integrated_model(spec, common::demo_c_vm(), 2, options);

  sim::PhysicalMachine machine(spec, 999);
  for (int i = 0; i < 2; ++i) {
    const auto id = machine.hypervisor().create_vm(
        common::demo_c_vm(), std::make_unique<wl::SyntheticRandomCpu>(500 + i));
    machine.hypervisor().start_vm(id);
  }
  const sim::ScenarioTrace trace = sim::run_scenario(machine, 200.0);
  EXPECT_LT(integrated_model_error(model, trace), 0.04);
}

TEST(IntegratedModel, Validation) {
  EXPECT_THROW(
      train_integrated_model(quiet_spec(), common::demo_c_vm(), 0, {}),
      std::invalid_argument);
  const IntegratedModel model{10.0, 138.0};
  sim::PhysicalMachine machine(quiet_spec(), 1);
  const sim::ScenarioTrace empty{};
  EXPECT_THROW((void)integrated_model_error(model, empty), std::invalid_argument);
}

}  // namespace
}  // namespace vmp::base
