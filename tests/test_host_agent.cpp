#include "fleet/host_agent.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "fleet/faults.hpp"

namespace vmp::fleet {
namespace {

// `vmpower meter` and `bill` run one agent under faults that never fire;
// these pin what they rely on.
class HostAgentTest : public ::testing::Test {
 protected:
  const sim::MachineSpec spec_ = sim::xeon_prototype();
  const std::vector<common::VmConfig> fleet_ = {
      common::paper_vm_type(1), common::paper_vm_type(2),
      common::paper_vm_type(1)};
  const FaultInjector no_faults_{FaultSpec{}, 1};

  static const core::OfflineDataset& dataset() {
    static const core::OfflineDataset trained = [] {
      core::CollectionOptions options;
      options.duration_s = 30.0;
      return core::collect_offline_dataset(
          sim::xeon_prototype(),
          {common::paper_vm_type(1), common::paper_vm_type(2),
           common::paper_vm_type(1)},
          options);
    }();
    return trained;
  }

  HostAgent agent(std::uint64_t seed) const {
    return HostAgent(0, spec_, fleet_, dataset().universe,
                     dataset().approximation, seed);
  }

  /// True when both carry the same VMs, types and state bits.
  static bool same_telemetry(const std::vector<common::VmSample>& a,
                             const std::vector<common::VmSample>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].vm_id != b[i].vm_id || a[i].type != b[i].type) return false;
      for (std::size_t c = 0; c < common::kNumComponents; ++c)
        if (std::bit_cast<std::uint64_t>(a[i].state.values()[c]) !=
            std::bit_cast<std::uint64_t>(b[i].state.values()[c]))
          return false;
    }
    return true;
  }
};

TEST_F(HostAgentTest, FaultFreeTickBillsEveryVmAgainstTheMeasurement) {
  HostAgent host = agent(3);
  ASSERT_EQ(host.vm_ids().size(), fleet_.size());
  for (std::uint64_t tick = 0; tick < 10; ++tick) {
    const HostTickResult r = host.sample(tick, no_faults_);
    EXPECT_EQ(r.host, 0u);
    EXPECT_EQ(r.tick, tick);
    ASSERT_EQ(r.vms.size(), host.vm_ids().size());
    for (std::size_t i = 0; i < r.vms.size(); ++i)
      EXPECT_EQ(r.vms[i].vm_id, host.vm_ids()[i]) << "tick " << tick;
    ASSERT_EQ(r.phi.size(), r.vms.size());
    EXPECT_GT(r.adjusted_power_w, 0.0);
    EXPECT_EQ(r.adjusted_power_w, r.measured_adjusted_w);
    EXPECT_DOUBLE_EQ(r.idle_power_w, spec_.idle_power_w);
    double phi_sum = 0.0;
    for (const double p : r.phi) phi_sum += p;
    EXPECT_LE(std::abs(phi_sum - r.adjusted_power_w), 1e-9) << "tick " << tick;
    EXPECT_FALSE(r.degraded);
    EXPECT_FALSE(r.stale);
    EXPECT_EQ(r.retries, 0u);
  }
  EXPECT_EQ(host.degraded_ticks(), 0u);
}

TEST_F(HostAgentTest, SameSeedIsBitIdenticalAndTheNextSeedDiffers) {
  HostAgent first = agent(5);
  HostAgent second = agent(5);
  HostAgent next_seed = agent(6);
  bool seeds_differ = false;
  for (std::uint64_t tick = 0; tick < 50; ++tick) {
    const std::vector<double> phi = first.sample(tick, no_faults_).phi;
    EXPECT_EQ(phi, second.sample(tick, no_faults_).phi) << "tick " << tick;
    seeds_differ |= phi != next_seed.sample(tick, no_faults_).phi;
  }
  EXPECT_TRUE(seeds_differ);
}

TEST_F(HostAgentTest, FastForwardThenSampleMatchesTheSampledTrajectory) {
  // Checkpoint restore skips billed ticks with fast_forward_tick and then
  // samples on; the next φ must be the one an uninterrupted host gives.
  for (const std::uint64_t k : {0u, 1u, 7u}) {
    HostAgent sampled = agent(9);
    std::vector<double> last;
    for (std::uint64_t tick = 0; tick <= k; ++tick)
      last = sampled.sample(tick, no_faults_).phi;
    HostAgent resumed = agent(9);
    for (std::uint64_t tick = 0; tick < k; ++tick) resumed.fast_forward_tick();
    EXPECT_EQ(resumed.sample(k, no_faults_).phi, last) << "k = " << k;
  }
}

TEST_F(HostAgentTest, AStaleTickReEstimatesTheLastFreshStatesOnItsOwnReading) {
  FaultSpec stale;
  stale.stale_telemetry = 1.0;
  const FaultInjector always_stale(stale, 1);
  HostAgent host = agent(3);
  HostAgent twin = agent(3);
  const HostTickResult fresh = host.sample(0, no_faults_);
  twin.sample(0, no_faults_);

  const HostTickResult r = host.sample(1, always_stale);
  const HostTickResult twin_r = twin.sample(1, no_faults_);
  EXPECT_TRUE(r.stale);
  EXPECT_FALSE(r.degraded);
  EXPECT_TRUE(same_telemetry(r.vms, fresh.vms));
  EXPECT_FALSE(same_telemetry(r.vms, twin_r.vms));
  EXPECT_EQ(r.measured_adjusted_w, twin_r.measured_adjusted_w);
  EXPECT_EQ(r.adjusted_power_w, r.measured_adjusted_w);
  ASSERT_EQ(r.phi.size(), r.vms.size());
  double phi_sum = 0.0;
  for (const double p : r.phi) phi_sum += p;
  EXPECT_LE(std::abs(phi_sum - r.measured_adjusted_w), 1e-9);
}

TEST_F(HostAgentTest, ADroppedOutTickCarriesTheLastFreshBill) {
  FaultSpec dropout;
  dropout.dropout = 1.0;
  const FaultInjector dark(dropout, 1);
  HostAgent host = agent(3);
  HostAgent twin = agent(3);
  const HostTickResult fresh = host.sample(0, no_faults_);
  twin.sample(0, no_faults_);

  const HostTickResult r = host.sample(1, dark);
  const HostTickResult twin_r = twin.sample(1, no_faults_);
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.stale);
  EXPECT_TRUE(same_telemetry(r.vms, fresh.vms));
  EXPECT_EQ(r.phi, fresh.phi);
  EXPECT_EQ(r.adjusted_power_w, fresh.adjusted_power_w);
  EXPECT_EQ(r.measured_adjusted_w, twin_r.measured_adjusted_w);
  EXPECT_NE(r.measured_adjusted_w, fresh.measured_adjusted_w);
  EXPECT_EQ(host.degraded_ticks(), 1u);
}

TEST_F(HostAgentTest, AnUntrainedVmTypeFailsAtConstruction) {
  // The universe knows VM1 and VM2 only. VM3 must fail here, naming the
  // type, not inside the first estimate() on a metering thread.
  const std::vector<common::VmConfig> fleet = {common::paper_vm_type(1),
                                               common::paper_vm_type(3)};
  try {
    HostAgent host(0, spec_, fleet, dataset().universe,
                   dataset().approximation, 1);
    ADD_FAILURE() << "an untrained VM type was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("VM type VM3"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace vmp::fleet
