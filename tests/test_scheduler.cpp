#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace vmp::sim {
namespace {

const CpuTopology kTopo{1, 4, 2};  // 8 logical CPUs

std::size_t busy_threads(const Placement& p) {
  std::size_t n = 0;
  for (const ThreadAssignment& t : p)
    if (t.busy()) ++n;
  return n;
}

std::size_t cores_with_both_siblings_busy(const Placement& p,
                                          const CpuTopology& topo) {
  std::size_t n = 0;
  for (std::size_t core = 0; core < topo.physical_cores(); ++core) {
    const LogicalCpu t0 = topo.first_thread_of(core);
    if (p[t0].busy() && p[t0 + 1].busy()) ++n;
  }
  return n;
}

TEST(Place, EveryDemandGetsExactlyOneThread) {
  const std::vector<VcpuDemand> demands = {
      {0, 0.5, 1.0}, {1, 0.7, 1.0}, {2, 1.0, 1.0}};
  for (PlacementMode mode : {PlacementMode::kSpread, PlacementMode::kPack}) {
    const Placement p = place(kTopo, demands, mode);
    ASSERT_EQ(p.size(), kTopo.logical_cpus());
    EXPECT_EQ(busy_threads(p), 3u);
  }
}

TEST(Place, SpreadPrefersEmptyCores) {
  const std::vector<VcpuDemand> demands = {{0, 1.0, 1.0}, {1, 1.0, 1.0}};
  const Placement p = place(kTopo, demands, PlacementMode::kSpread);
  EXPECT_EQ(cores_with_both_siblings_busy(p, kTopo), 0u);
}

TEST(Place, PackFillsSiblingsFirst) {
  const std::vector<VcpuDemand> demands = {{0, 1.0, 1.0}, {1, 1.0, 1.0}};
  const Placement p = place(kTopo, demands, PlacementMode::kPack);
  // Both vCPUs share physical core 0 — the Fig. 4 configuration.
  EXPECT_TRUE(p[0].busy());
  EXPECT_TRUE(p[1].busy());
  EXPECT_EQ(cores_with_both_siblings_busy(p, kTopo), 1u);
}

TEST(Place, PackPairsAcrossVms) {
  // Three 1-vCPU VMs under pack: two share core 0, the third opens core 1.
  const std::vector<VcpuDemand> demands = {
      {0, 1.0, 1.0}, {1, 1.0, 1.0}, {2, 1.0, 1.0}};
  const Placement p = place(kTopo, demands, PlacementMode::kPack);
  EXPECT_EQ(cores_with_both_siblings_busy(p, kTopo), 1u);
  EXPECT_TRUE(p[2].busy());
}

TEST(Place, SpreadFallsBackToSiblingsWhenCrowded) {
  // 5 vCPUs on 4 cores: spread must start doubling up.
  std::vector<VcpuDemand> demands;
  for (std::size_t i = 0; i < 5; ++i) demands.push_back({i, 1.0, 1.0});
  const Placement p = place(kTopo, demands, PlacementMode::kSpread);
  EXPECT_EQ(busy_threads(p), 5u);
  EXPECT_EQ(cores_with_both_siblings_busy(p, kTopo), 1u);
}

TEST(Place, FullMachineBothModesIdentical) {
  std::vector<VcpuDemand> demands;
  for (std::size_t i = 0; i < 8; ++i) demands.push_back({i, 0.5, 1.0});
  const Placement spread = place(kTopo, demands, PlacementMode::kSpread);
  const Placement pack = place(kTopo, demands, PlacementMode::kPack);
  EXPECT_EQ(busy_threads(spread), 8u);
  EXPECT_EQ(busy_threads(pack), 8u);
}

TEST(Place, OvercommitRejected) {
  std::vector<VcpuDemand> demands;
  for (std::size_t i = 0; i < 9; ++i) demands.push_back({i, 0.5, 1.0});
  EXPECT_THROW(place(kTopo, demands, PlacementMode::kSpread),
               std::invalid_argument);
}

TEST(Place, CarriesUtilizationAndIntensity) {
  const std::vector<VcpuDemand> demands = {{7, 0.33, 1.25}};
  const Placement p = place(kTopo, demands, PlacementMode::kSpread);
  const auto it =
      std::find_if(p.begin(), p.end(), [](const auto& t) { return t.busy(); });
  ASSERT_NE(it, p.end());
  EXPECT_EQ(it->vm_index, 7u);
  EXPECT_DOUBLE_EQ(it->utilization, 0.33);
  EXPECT_DOUBLE_EQ(it->intensity, 1.25);
  EXPECT_NEAR(it->effective_load(), 0.4125, 1e-12);
}

TEST(Place, IdleThreadHasZeroEffectiveLoad) {
  const Placement p = place(kTopo, {}, PlacementMode::kSpread);
  for (const ThreadAssignment& t : p) {
    EXPECT_FALSE(t.busy());
    EXPECT_DOUBLE_EQ(t.effective_load(), 0.0);
  }
}

TEST(Place, DeterministicForGivenMode) {
  const std::vector<VcpuDemand> demands = {{0, 0.4, 1.0}, {1, 0.6, 1.0}};
  const Placement a = place(kTopo, demands, PlacementMode::kPack);
  const Placement b = place(kTopo, demands, PlacementMode::kPack);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vm_index, b[i].vm_index);
    EXPECT_DOUBLE_EQ(a[i].utilization, b[i].utilization);
  }
}

TEST(PlacementMode, Names) {
  EXPECT_STREQ(to_string(PlacementMode::kPack), "pack");
  EXPECT_STREQ(to_string(PlacementMode::kSpread), "spread");
}

}  // namespace
}  // namespace vmp::sim
