#include "core/collector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/vm_config.hpp"

namespace vmp::core {
namespace {

sim::MachineSpec quiet_spec() {
  sim::MachineSpec spec = sim::xeon_prototype();
  spec.meter_noise_sigma_w = 0.0;
  spec.meter_quantum_w = 0.0;
  spec.affinity_jitter = 0.0;
  return spec;
}

TEST(Collector, OptionsValidation) {
  CollectionOptions options;
  options.duration_s = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.period_s = -1.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  options = {};
  options.resolution = 0.0;
  EXPECT_THROW(options.validate(), std::invalid_argument);
  // The campaign casts duration/dwell and duration/period to size_t, which
  // is undefined for inf or >= 2^64.
  for (const double duration : {HUGE_VAL, 1e30}) {
    options = {};
    options.duration_s = duration;
    EXPECT_THROW(options.validate(), std::invalid_argument) << duration;
  }
  options = {};
  options.duration_s = 600.0;
  EXPECT_NO_THROW(options.validate());
  EXPECT_NO_THROW(CollectionOptions{}.validate());
}

TEST(Collector, EmptyFleetRejected) {
  CollectionOptions options;
  options.duration_s = 10.0;
  EXPECT_THROW(collect_offline_dataset(quiet_spec(), {}, options),
               std::invalid_argument);
}

TEST(Collector, TraversesAllNonEmptyCombos) {
  const auto catalogue = common::paper_vm_catalogue();
  const std::vector<common::VmConfig> fleet = {catalogue[0], catalogue[1]};
  CollectionOptions options;
  options.duration_s = 30.0;
  const OfflineDataset dataset =
      collect_offline_dataset(quiet_spec(), fleet, options);
  EXPECT_EQ(dataset.universe.size(), 2u);
  // 2^2 - 1 = 3 non-empty combos, each with 30 samples.
  EXPECT_EQ(dataset.table.combos().size(), 3u);
  EXPECT_EQ(dataset.table.total_samples(), 90u);
  for (VhcComboMask combo = 1; combo < 4; ++combo)
    EXPECT_TRUE(dataset.approximation.has_combo(combo)) << combo;
}

TEST(Collector, FittedWeightsNearIsolationCoefficient) {
  // A single VM1-type VHC trained alone: the combo-{0} weight is the thread
  // power (13.15 W at full utilization for a 1-vCPU VM).
  const std::vector<common::VmConfig> fleet = {common::paper_vm_type(1)};
  CollectionOptions options;
  options.duration_s = 200.0;
  const OfflineDataset dataset =
      collect_offline_dataset(quiet_spec(), fleet, options);
  EXPECT_NEAR(dataset.approximation.weights(0b1)[0], 13.15, 0.15);
}

TEST(Collector, HomogeneousPairWeightReflectsContention) {
  // Two VM1s trained together: the per-unit weight drops below 13.15 because
  // the pack fraction of their co-schedule saves SMT power.
  const std::vector<common::VmConfig> fleet = {common::paper_vm_type(1),
                                               common::paper_vm_type(1)};
  CollectionOptions options;
  options.duration_s = 200.0;
  const OfflineDataset dataset =
      collect_offline_dataset(quiet_spec(), fleet, options);
  const double w = dataset.approximation.weights(0b1)[0];
  EXPECT_LT(w, 13.15);
  EXPECT_GT(w, 9.0);
}

TEST(Collector, ExerciseAllComponentsFitsMemoryWeight) {
  const std::vector<common::VmConfig> fleet = {common::paper_vm_type(3)};
  CollectionOptions options;
  options.duration_s = 300.0;
  options.exercise_all_components = true;
  const OfflineDataset dataset =
      collect_offline_dataset(quiet_spec(), fleet, options);
  const auto w = dataset.approximation.weights(0b1);
  EXPECT_GT(w[0], 10.0);  // cpu weight
  // VM3 holds 8 GB of the 32 GB host: full residency draws 12 W * 0.25 = 3 W.
  EXPECT_NEAR(w[1], 3.0, 0.6);
  EXPECT_GT(w[2], 0.5);  // disk weight present too
}

TEST(Collector, CpuOnlySyntheticLeavesOtherWeightsZero) {
  const std::vector<common::VmConfig> fleet = {common::paper_vm_type(1)};
  CollectionOptions options;
  options.duration_s = 100.0;
  const OfflineDataset dataset =
      collect_offline_dataset(quiet_spec(), fleet, options);
  const auto w = dataset.approximation.weights(0b1);
  EXPECT_NEAR(w[1], 0.0, 1e-6);
  EXPECT_NEAR(w[2], 0.0, 1e-6);
}

TEST(Collector, DeterministicForFixedSeed) {
  const std::vector<common::VmConfig> fleet = {common::paper_vm_type(1)};
  CollectionOptions options;
  options.duration_s = 50.0;
  options.seed = 77;
  const auto a = collect_offline_dataset(quiet_spec(), fleet, options);
  const auto b = collect_offline_dataset(quiet_spec(), fleet, options);
  EXPECT_DOUBLE_EQ(a.approximation.weights(0b1)[0],
                   b.approximation.weights(0b1)[0]);
}

}  // namespace
}  // namespace vmp::core
