#include "fleet/engine.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
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

  /// The tick observer contract: one result per host, in host-id order, all
  /// stamped with the tick being closed.
  static void check_tick(const FleetEngine&, std::uint64_t tick,
                         const std::vector<HostTickResult>& results) {
    ASSERT_EQ(results.size(), kHosts);
    for (std::size_t h = 0; h < kHosts; ++h) {
      EXPECT_EQ(results[h].host, h) << "tick " << tick;
      EXPECT_EQ(results[h].tick, tick) << "host " << h;
    }
  }
};

TEST_F(FleetEngineTest, LedgersAreByteIdenticalAcrossThreadCounts) {
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

TEST_F(FleetEngineTest, EveryThreadCountClaimsEachHostOncePerTick) {
  // 1 thread runs without a pool, 2 and 3 split the 4 hosts unevenly, and 8
  // outnumber them. A 1 µs backoff makes a claimer sleep mid-tick while the
  // other threads keep claiming.
  FleetOptions options = options_for(1);
  options.faults = parse_fault_spec("meter:0.4,dropout:0.1,stale:0.3");
  options.retry_backoff_base = std::chrono::microseconds{1};
  FleetEngine serial(options, dataset_);
  serial.set_tick_observer(check_tick);
  serial.run(20);
  EXPECT_GT(serial.retries(), 0u);
  EXPECT_GT(serial.degraded_ticks(), 0u);
  EXPECT_GT(serial.stale_ticks(), 0u);

  for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
    options.threads = threads;
    FleetEngine engine(options, dataset_);
    std::uint64_t observed = 0;
    engine.set_tick_observer(
        [&observed](const FleetEngine& e, std::uint64_t tick,
                    const std::vector<HostTickResult>& results) {
          EXPECT_EQ(tick, observed++);
          check_tick(e, tick, results);
        });
    engine.run(20);
    EXPECT_EQ(observed, 20u) << threads << " threads";
    EXPECT_EQ(ledger_fingerprint(engine), ledger_fingerprint(serial))
        << threads << " threads";
    EXPECT_EQ(engine.degraded_ticks(), serial.degraded_ticks()) << threads;
    EXPECT_EQ(engine.retries(), serial.retries()) << threads;
    EXPECT_EQ(engine.stale_ticks(), serial.stale_ticks()) << threads;
    EXPECT_EQ(engine.samples_processed(), kHosts * 20) << threads;
  }
}

TEST_F(FleetEngineTest, ScrapeCarriesEveryFleetSeriesAndNoServeSeries) {
  FleetEngine engine(options_for(3), dataset_);
  const auto has = [&engine](const std::string& text) {
    return engine.metrics().to_prometheus().find(text) != std::string::npos;
  };
  // Registered when the engine is built: a scrape before the first tick
  // already shows the series at 0.
  EXPECT_TRUE(has("vmpower_fleet_ticks_total 0\n"));
  EXPECT_TRUE(has("vmpower_fleet_host_degraded{host=\"0\"} 0\n"));

  engine.run(5);
  for (std::size_t h = 0; h < kHosts; ++h) {
    const std::string host = "{host=\"" + std::to_string(h) + "\"} ";
    EXPECT_TRUE(has("vmpower_fleet_host_estimate_error_w" + host)) << h;
    EXPECT_TRUE(has("vmpower_fleet_host_degraded" + host + "0\n")) << h;
  }
  EXPECT_FALSE(has("{host=\"" + std::to_string(kHosts) + "\"}"));
  // Fault-free, every host-tick ran the estimator.
  const std::string host_ticks = std::to_string(5 * kHosts);
  EXPECT_TRUE(
      has("vmpower_fleet_tick_latency_seconds_count " + host_ticks + "\n"));
  EXPECT_TRUE(has("vmpower_fleet_estimator_latency_seconds_count " +
                  host_ticks + "\n"));
  EXPECT_TRUE(has("vmpower_fleet_ticks_total 5\n"));
  EXPECT_TRUE(
      has("vmpower_fleet_samples_processed_total " + host_ticks + "\n"));
  // No snapshot store and no ledger: the monitor never observed either.
  EXPECT_FALSE(has("vmpower_serve_snapshot_"));
  EXPECT_FALSE(has("vmpower_ledger_tail_lag"));
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
  // Per process, and cleared first: a file left by a run that died must not
  // stand in for the missing one.
  const std::filesystem::path path =
      ::testing::TempDir() + "fleet_bad-" + std::to_string(::getpid()) + ".txt";
  std::filesystem::remove(path);
  FleetEngine engine(options_for(1), dataset_);
  engine.run(1);
  EXPECT_THROW(engine.restore_checkpoint(path), std::logic_error);

  // A refused checkpoint leaves nothing of itself behind: no counters and no
  // joules, so the next tick bills what a fresh engine's first tick bills,
  // bit for bit.
  FleetEngine first_tick(options_for(1), dataset_);
  first_tick.run(1);
  const std::vector<double> fresh_bill = ledger_fingerprint(first_tick);
  const auto expect_untouched = [&](FleetEngine& target,
                                    const std::string& what) {
    EXPECT_EQ(target.tick(), 0u) << what;
    EXPECT_EQ(target.samples_processed(), 0u) << what;
    EXPECT_EQ(target.tenant_ledger().total_energy_j(), 0.0) << what;
    target.run(1);
    EXPECT_EQ(ledger_fingerprint(target), fresh_bill) << what;
  };

  FleetEngine fresh(options_for(1), dataset_);
  EXPECT_THROW(fresh.restore_checkpoint(path), std::runtime_error);
  expect_untouched(fresh, "missing file");

  // Host-count mismatch is rejected before any state is replayed.
  engine.save_checkpoint(path);
  FleetOptions narrow = options_for(1);
  narrow.hosts = 2;
  FleetEngine mismatched(narrow, dataset_);
  EXPECT_THROW(mismatched.restore_checkpoint(path), std::runtime_error);

  // Header values parse strictly: counts are whole unsigned numbers and
  // energies and seconds finite, with no trailing bytes. A wrapped tick=-1
  // once fast-forwarded 2^64-1 ticks, entries=-1 died allocating, and the
  // others resumed silently. Each error names the key and the token.
  std::string saved;
  {
    std::ifstream in(path);
    saved.assign(std::istreambuf_iterator<char>(in), {});
  }
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"tick", "-1"},
           {"hosts", "1x"},
           {"processed", "10junk"},
           {"unattributed", "inf"},
           {"seconds", "nan"},
           {"entries", "-1"},
           {"policy", "3"}}) {
    const std::size_t at = saved.find(" " + key + "=");
    ASSERT_NE(at, std::string::npos) << key;
    const std::size_t begin = at + key.size() + 2;
    const std::size_t end = saved.find_first_of(" \n", begin);
    std::string damaged = saved;
    damaged.replace(begin, end - begin, value);
    {
      std::ofstream out(path, std::ios::trunc);
      out << damaged;
    }
    FleetEngine target(options_for(1), dataset_);
    try {
      target.restore_checkpoint(path);
      ADD_FAILURE() << key << "=" << value << " was accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("'" + key + "=" + value + "'"),
                std::string::npos)
          << error.what();
    }
    expect_untouched(target, key + "=" + value);
  }

  // A host's carried rows must be its own VMs, with their types, in
  // ascending id order, since stale and degraded ticks bill them. A count of
  // -1 once died allocating, and a row naming a VM the host never booted
  // was billed on the stale ticks that followed. Each error names the host
  // and the value.
  std::vector<std::string> lines;
  {
    std::istringstream in(saved);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  const auto h = static_cast<std::size_t>(
      std::find_if(lines.begin(), lines.end(),
                   [](const std::string& line) {
                     return line.rfind("host 0 ", 0) == 0;
                   }) -
      lines.begin());
  ASSERT_LT(h + 2, lines.size());
  const auto with_token = [](std::string line, std::size_t index,
                             const std::string& value) {
    std::size_t begin = 0;
    for (std::size_t i = 0; i < index; ++i) begin = line.find(' ', begin) + 1;
    return line.replace(begin, line.find(' ', begin) - begin, value);
  };
  std::uint32_t id = 0, type = 0;
  std::istringstream(lines[h + 1]) >> id >> type;
  const std::string other_type = std::to_string(type + 1);
  std::vector<std::pair<std::vector<std::string>, std::string>> damaged_rows;
  auto edit = lines;
  edit[h] = with_token(edit[h], 5, "-1");
  damaged_rows.emplace_back(edit, "count -1 ");
  edit = lines;
  edit[h] = with_token(edit[h], 5, "3");
  edit.insert(edit.begin() + static_cast<std::ptrdiff_t>(h + 3),
              with_token(edit[h + 2], 0, "99"));
  damaged_rows.emplace_back(edit, "count 3 ");
  edit = lines;
  edit[h + 2] = with_token(edit[h + 2], 0, "99");
  damaged_rows.emplace_back(edit, "VM 99,");
  edit = lines;
  std::swap(edit[h + 1], edit[h + 2]);
  damaged_rows.emplace_back(edit, "VM 0,");
  edit = lines;
  edit[h + 1] = with_token(edit[h + 1], 1, other_type);
  damaged_rows.emplace_back(edit, "type " + other_type + ",");
  for (const auto& [rows, named] : damaged_rows) {
    {
      std::ofstream out(path, std::ios::trunc);
      for (const std::string& line : rows) out << line << '\n';
    }
    FleetEngine target(options_for(1), dataset_);
    try {
      target.restore_checkpoint(path);
      ADD_FAILURE() << named << " was accepted";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("host 0 "), std::string::npos) << what;
      EXPECT_NE(what.find(named), std::string::npos) << what;
    }
    expect_untouched(target, named);
  }
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

  // A VM type the dataset was not trained on fails here, not inside the
  // first tick's estimate on a metering thread.
  options = options_for(2);
  options.fleet_per_host = {common::demo_c_vm(), common::paper_vm_type(3)};
  try {
    FleetEngine engine(options, dataset_);
    ADD_FAILURE() << "an untrained VM type was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("VM type VM3"),
              std::string::npos)
        << error.what();
  }
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
