#include "core/vsc_table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace vmp::core {
namespace {

using common::StateVector;

std::vector<StateVector> one_state(double cpu) {
  return {StateVector::cpu_only(cpu)};
}

TEST(VscTable, ConstructionValidation) {
  EXPECT_THROW(VscTable(0), std::invalid_argument);
  EXPECT_THROW(VscTable(VhcUniverse::kMaxVhcs + 1), std::invalid_argument);
  EXPECT_THROW(VscTable(2, 0.0), std::invalid_argument);
  const VscTable table(2, 0.05);
  EXPECT_EQ(table.num_vhcs(), 2u);
  EXPECT_DOUBLE_EQ(table.resolution(), 0.05);
}

TEST(VscTable, RecordAndLookupExactState) {
  VscTable table(1, 0.01);
  table.record(0b1, one_state(0.50), 6.5);
  EXPECT_EQ(table.total_samples(), 1u);
  const auto& samples = table.samples(0b1);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].vhc_states[0], StateVector::cpu_only(0.50));
  EXPECT_DOUBLE_EQ(samples[0].power_w, 6.5);
}

TEST(VscTable, QuantizationMergesNearbyStates) {
  VscTable table(1, 0.01);
  table.record(0b1, one_state(0.502), 6.0);   // quantizes to 0.50
  table.record(0b1, one_state(0.498), 8.0);   // quantizes to 0.50
  const auto& samples = table.samples(0b1);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].vhc_states[0], samples[1].vhc_states[0]);
  EXPECT_NEAR(samples[0].vhc_states[0].cpu(), 0.50, 1e-12);
  EXPECT_DOUBLE_EQ(samples[0].power_w, 6.0);
  EXPECT_DOUBLE_EQ(samples[1].power_w, 8.0);
}

TEST(VscTable, CombosAreIndependent) {
  VscTable table(2, 0.01);
  table.record(0b01, std::vector<StateVector>{StateVector::cpu_only(0.5), StateVector::zero()}, 5.0);
  table.record(0b10, std::vector<StateVector>{StateVector::zero(), StateVector::cpu_only(0.5)}, 9.0);
  ASSERT_EQ(table.samples(0b01).size(), 1u);
  EXPECT_DOUBLE_EQ(table.samples(0b01)[0].power_w, 5.0);
  EXPECT_EQ(table.samples(0b01)[0].vhc_states[1], StateVector::zero());
  ASSERT_EQ(table.samples(0b10).size(), 1u);
  EXPECT_DOUBLE_EQ(table.samples(0b10)[0].power_w, 9.0);
  EXPECT_TRUE(table.samples(0b11).empty());
  EXPECT_EQ(table.combos().size(), 2u);
}

TEST(VscTable, RecordValidation) {
  VscTable table(1, 0.01);
  EXPECT_THROW(table.record(0b1, {}, 5.0), std::invalid_argument);
  EXPECT_THROW(table.record(0b10, one_state(0.5), 5.0), std::invalid_argument);
  EXPECT_THROW(table.record(0b1, one_state(0.5), -1.0), std::invalid_argument);
  // Combo 0 is no coalition: it once filled a cell no query reaches.
  EXPECT_THROW(table.record(0, one_state(0.5), 5.0), std::invalid_argument);
  EXPECT_EQ(table.total_samples(), 0u);
}

TEST(VscTable, SamplesStoreQuantizedStates) {
  VscTable table(1, 0.01);
  table.record(0b1, one_state(0.1234), 3.0);
  const auto& samples = table.samples(0b1);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0].vhc_states[0].cpu(), 0.12, 1e-12);
  EXPECT_EQ(samples[0].combo, 0b1u);
}

TEST(VscTable, AggregatedStatesBeyondOneAccepted) {
  // VHC states are sums over VMs and routinely exceed 1.0.
  VscTable table(1, 0.01);
  table.record(0b1, one_state(3.47), 45.0);
  const auto& samples = table.samples(0b1);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0].vhc_states[0].cpu(), 3.47, 1e-12);
  EXPECT_DOUBLE_EQ(samples[0].power_w, 45.0);
}

}  // namespace
}  // namespace vmp::core
