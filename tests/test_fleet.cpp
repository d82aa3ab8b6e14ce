#include "fleet/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "fleet/faults.hpp"
#include "util/thread_pool.hpp"

namespace vmp::fleet {
namespace {

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran, 100);
  EXPECT_THROW(util::ThreadPool(0), std::invalid_argument);
}

// --- Fault injection --------------------------------------------------------

TEST(Faults, SpecParsingAndValidation) {
  const FaultSpec spec = parse_fault_spec("meter:0.5,dropout:0.1,stale:0.25");
  EXPECT_DOUBLE_EQ(spec.meter_failure, 0.5);
  EXPECT_DOUBLE_EQ(spec.dropout, 0.1);
  EXPECT_DOUBLE_EQ(spec.stale_telemetry, 0.25);
  EXPECT_TRUE(spec.any());
  EXPECT_FALSE(FaultSpec{}.any());
  EXPECT_THROW(parse_fault_spec("meter:1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("disk:0.1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("meter=0.1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("meter:abc"), std::invalid_argument);
}

TEST(Faults, RollsAreDeterministicInTheKey) {
  FaultSpec spec;
  spec.meter_failure = 0.5;
  const FaultInjector a(spec, 42), b(spec, 42);
  int fired = 0;
  for (std::uint64_t tick = 0; tick < 200; ++tick) {
    const bool hit = a.fires(FaultInjector::Kind::kMeter, 3, tick);
    EXPECT_EQ(hit, b.fires(FaultInjector::Kind::kMeter, 3, tick));
    fired += hit;
  }
  // ~Binomial(200, 0.5); a [40, 160] band is astronomically safe.
  EXPECT_GT(fired, 40);
  EXPECT_LT(fired, 160);

  FaultSpec never, always;
  always.dropout = 1.0;
  EXPECT_FALSE(
      FaultInjector(never, 1).fires(FaultInjector::Kind::kDropout, 0, 0));
  EXPECT_TRUE(
      FaultInjector(always, 1).fires(FaultInjector::Kind::kDropout, 0, 0));
}

// --- FleetEngine ------------------------------------------------------------

class FleetEngineTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kHosts = 4;

  std::vector<common::VmConfig> fleet_ = {common::demo_c_vm(),
                                          common::demo_c_vm()};

  core::OfflineDataset dataset_ = [this] {
    core::CollectionOptions options;
    options.duration_s = 30.0;
    return core::collect_offline_dataset(sim::xeon_prototype(), fleet_,
                                         options);
  }();

  FleetOptions options_for(std::size_t threads) const {
    FleetOptions options;
    options.hosts = kHosts;
    options.threads = threads;
    options.fleet_per_host = fleet_;
    options.tenants = 2;
    options.seed = 7;
    options.retry_backoff_base = std::chrono::microseconds{0};  // fast tests.
    return options;
  }

  static std::vector<double> ledger_fingerprint(const FleetEngine& engine) {
    std::vector<double> values;
    const auto& tenants = engine.tenant_ledger();
    for (const core::TenantId tenant : tenants.tenants()) {
      values.push_back(tenants.tenant_energy_j(tenant));
      for (std::size_t h = 0; h < engine.options().hosts; ++h)
        values.push_back(
            tenants.tenant_energy_on_host_j(tenant, static_cast<core::HostId>(h)));
    }
    for (std::size_t h = 0; h < engine.options().hosts; ++h)
      for (const std::uint32_t vm : engine.host_ledger(h).vm_ids())
        values.push_back(engine.host_ledger(h).energy_j(vm));
    values.push_back(tenants.unattributed_energy_j());
    return values;
  }
};

TEST_F(FleetEngineTest, LedgersAreByteIdenticalAcrossThreadCounts) {
  // The tick observer contract: one result per host, in host-id order, all
  // stamped with the tick being closed.
  const auto check_tick = [](const FleetEngine&, std::uint64_t tick,
                             const std::vector<HostTickResult>& results) {
    ASSERT_EQ(results.size(), kHosts);
    for (std::size_t h = 0; h < kHosts; ++h) {
      EXPECT_EQ(results[h].host, h) << "tick " << tick;
      EXPECT_EQ(results[h].tick, tick) << "host " << h;
    }
  };
  FleetEngine serial(options_for(1), dataset_);
  serial.set_tick_observer(check_tick);
  serial.run(15);
  FleetEngine threaded(options_for(3), dataset_);
  threaded.set_tick_observer(check_tick);
  threaded.run(15);

  const auto a = ledger_fingerprint(serial);
  const auto b = ledger_fingerprint(threaded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "fingerprint slot " << i;  // exact, not NEAR.
  EXPECT_GT(serial.tenant_ledger().total_energy_j(), 0.0);
  for (const FleetEngine* engine : {&serial, &threaded}) {
    EXPECT_EQ(engine->samples_processed(), kHosts * 15);
    EXPECT_EQ(engine->samples_dropped(), 0u);
  }
}

TEST_F(FleetEngineTest, DeterminismHoldsWithFaultInjectionEnabled) {
  FleetOptions faulty = options_for(1);
  faulty.faults = parse_fault_spec("meter:0.4,dropout:0.1,stale:0.3");
  FleetEngine serial(faulty, dataset_);
  serial.run(20);

  faulty.threads = 3;
  FleetEngine threaded(faulty, dataset_);
  threaded.run(20);

  EXPECT_EQ(ledger_fingerprint(serial), ledger_fingerprint(threaded));
  EXPECT_EQ(serial.degraded_ticks(), threaded.degraded_ticks());
  EXPECT_EQ(serial.retries(), threaded.retries());
  EXPECT_EQ(serial.stale_ticks(), threaded.stale_ticks());
  EXPECT_GT(serial.degraded_ticks(), 0u);
}

TEST_F(FleetEngineTest, DegradedHostsCarryLastGoodEstimateNeverZero) {
  FleetOptions faulty = options_for(2);
  faulty.faults = parse_fault_spec("meter:0.6,dropout:0.15");
  FleetEngine engine(faulty, dataset_);
  engine.run(30);

  EXPECT_GT(engine.degraded_ticks(), 0u);
  EXPECT_GT(engine.retries(), 0u);
  // Every host keeps billing through its blackouts: carried estimates, not
  // silent zeros.
  for (std::size_t h = 0; h < kHosts; ++h)
    EXPECT_GT(engine.host_ledger(h).total_energy_j(), 0.0) << "host " << h;

  const std::string dump = engine.metrics().to_prometheus();
  EXPECT_NE(dump.find("vmpower_fleet_degraded_ticks_total"),
            std::string::npos);
  EXPECT_NE(dump.find("vmpower_fleet_meter_retries_total"),
            std::string::npos);
}

TEST_F(FleetEngineTest, CheckpointRestoreResumesExactTrajectory) {
  const std::filesystem::path path = ::testing::TempDir() + "fleet_ckpt.txt";

  FleetOptions options = options_for(2);
  options.faults = parse_fault_spec("meter:0.3,stale:0.2");
  FleetEngine original(options, dataset_);
  original.run(8);
  original.save_checkpoint(path);
  original.run(7);  // the reference: one continuous 15-tick run.

  FleetEngine resumed(options, dataset_);
  resumed.restore_checkpoint(path);
  EXPECT_EQ(resumed.tick(), 8u);
  resumed.run(7);

  EXPECT_EQ(ledger_fingerprint(original), ledger_fingerprint(resumed));
  EXPECT_EQ(original.degraded_ticks(), resumed.degraded_ticks());
  EXPECT_EQ(original.samples_processed(), resumed.samples_processed());
  std::filesystem::remove(path);
}

TEST_F(FleetEngineTest, RestoreValidation) {
  const std::filesystem::path path = ::testing::TempDir() + "fleet_bad.txt";
  FleetEngine engine(options_for(1), dataset_);
  engine.run(1);
  EXPECT_THROW(engine.restore_checkpoint(path), std::logic_error);

  FleetEngine fresh(options_for(1), dataset_);
  EXPECT_THROW(fresh.restore_checkpoint(path), std::runtime_error);

  // Host-count mismatch is rejected before any state is replayed.
  engine.save_checkpoint(path);
  FleetOptions narrow = options_for(1);
  narrow.hosts = 2;
  FleetEngine mismatched(narrow, dataset_);
  EXPECT_THROW(mismatched.restore_checkpoint(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST_F(FleetEngineTest, OptionsValidation) {
  FleetOptions options = options_for(1);
  options.hosts = 0;
  EXPECT_THROW(FleetEngine(options, dataset_), std::invalid_argument);
  options = options_for(1);
  options.fleet_per_host.clear();
  EXPECT_THROW(FleetEngine(options, dataset_), std::invalid_argument);
  options = options_for(0);
  EXPECT_THROW(FleetEngine(options, dataset_), std::invalid_argument);
  options = options_for(1);
  options.faults.meter_failure = 2.0;
  EXPECT_THROW(FleetEngine(options, dataset_), std::invalid_argument);
}

TEST_F(FleetEngineTest, RetriesAreBoundedWhereTheBackoffShiftIsDefined) {
  // Retry k sleeps retry_backoff_base * (1u << k): from 33 retries on the
  // shift leaves the 32-bit range, so validation stops there.
  FleetOptions options = options_for(1);
  for (const std::uint32_t retries : {33u, 0xFFFFFFFFu}) {
    options.max_retries = retries;
    EXPECT_THROW(options.validate(), std::invalid_argument) << retries;
    EXPECT_THROW(FleetEngine(options, dataset_), std::invalid_argument)
        << retries;
  }

  // The largest admitted budget runs every attempt on a meter that always
  // fails, then carries the host's estimate.
  options.max_retries = 32;
  options.faults.meter_failure = 1.0;
  EXPECT_NO_THROW(options.validate());
  FleetEngine engine(options, dataset_);
  engine.run(1);
  EXPECT_EQ(engine.retries(), 32u * kHosts);
  EXPECT_EQ(engine.degraded_ticks(), kHosts);
}

}  // namespace
}  // namespace vmp::fleet
