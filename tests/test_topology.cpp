#include "sim/cpu_topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vmp::sim {
namespace {

TEST(CpuTopology, DimensionsAndCounts) {
  const CpuTopology t(2, 8, 2);
  EXPECT_EQ(t.sockets(), 2u);
  EXPECT_EQ(t.cores_per_socket(), 8u);
  EXPECT_EQ(t.threads_per_core(), 2u);
  EXPECT_EQ(t.physical_cores(), 16u);
  EXPECT_EQ(t.logical_cpus(), 32u);
}

TEST(CpuTopology, Validation) {
  EXPECT_THROW(CpuTopology(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(CpuTopology(1, 0, 1), std::invalid_argument);
  EXPECT_THROW(CpuTopology(1, 1, 0), std::invalid_argument);
  EXPECT_THROW(CpuTopology(1, 1, 3), std::invalid_argument);
}

TEST(CpuTopology, Equality) {
  EXPECT_EQ(CpuTopology(1, 8, 2), CpuTopology(1, 8, 2));
  EXPECT_NE(CpuTopology(1, 8, 2), CpuTopology(1, 8, 1));
}

}  // namespace
}  // namespace vmp::sim
