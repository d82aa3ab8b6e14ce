// Federated scatter-gather benchmarks: fan-out latency as a function of
// shard count, the hedged-request win under an injected slow shard, and the
// graceful-degradation path with a killed shard.
//
// Section 1 — fan-out latency vs shard count: N in-process fleet shards
// (store + engine + server on loopback) answer the same window query
// through one FederationFrontend. Every row cross-checks the acceptance
// criterion: the federated response must be *byte-identical* to a single
// fleet that metered every shard's VMs itself. The synthetic energies are
// integer joule counts that are whole multiples of 3.6e6 (exact kWh) and the
// TOU rate is 0.125 $/kWh — a power of two — so the Additivity roll-up is
// exact in IEEE doubles and the comparison is equality, not tolerance.
//
// Section 2 — hedging: a three-shard federation where one shard's primary
// server stalls every request (ServerOptions::worker_delay) while its
// replica answers immediately. Unhedged, every fan-out waits out the stall;
// hedged, the replica wins the race after hedge_delay. The win is the p50
// gap, and vmpower_fed_hedge_wins_total proves the hedged path ran.
//
// Section 3 — partial degradation: one shard is stopped mid-run; the
// federated answer must stay ok with complete=false and the dead fleet
// named in missing_shards, and the values must equal the survivors' sum.
//
// --quick trims iteration counts for the CI smoke job; --json PATH writes a
// BENCH_federation.json blob (Release builds only).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "federate/frontend.hpp"
#include "federate/shard_map.hpp"
#include "federate/spin.hpp"
#include "serve/protocol.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include "bench_json.hpp"

using namespace vmp;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kJPerKwh = 3.6e6;
constexpr int kEpochs = 8;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string format_double(double value, const char* format) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, format, value);
  return buffer;
}

/// Shard `fleet`'s synthetic state at integer time t: disjoint hosts (host
/// id == fleet id), two VMs on two tenants, energies exact in doubles.
serve::Snapshot shard_at(std::uint32_t fleet, double t) {
  const double f = static_cast<double>(fleet);
  serve::Snapshot snapshot;
  snapshot.tick = static_cast<std::uint64_t>(t);
  snapshot.time_s = t;
  snapshot.vms = {{fleet, 1, 1, f, f * t * kJPerKwh},
                  {fleet, 2, 2, 2.0 * f, 2.0 * f * t * kJPerKwh}};
  snapshot.tenants = {{1, f, f * t * kJPerKwh},
                      {2, 2.0 * f, 2.0 * f * t * kJPerKwh}};
  snapshot.total_power_w = 3.0 * f;
  snapshot.total_energy_j = 3.0 * f * t * kJPerKwh;
  return snapshot;
}

serve::QueryEngineOptions exact_tou_options() {
  serve::QueryEngineOptions options;
  options.tou.offpeak_usd_per_kwh = 0.125;  // power of two: exact costs.
  options.tou.peak_usd_per_kwh = 0.125;
  return options;
}

serve::Request window_query() {
  serve::Request request;
  request.kind = serve::QueryKind::kTenantEnergy;
  request.tenant = 1;
  request.t0 = 1.0;
  request.t1 = static_cast<double>(kEpochs);
  return request;
}

std::vector<std::unique_ptr<federate::InProcessShard>> spin_shards(
    std::size_t count, std::chrono::milliseconds primary_delay =
                           std::chrono::milliseconds(0),
    bool replicas = false) {
  std::vector<std::unique_ptr<federate::InProcessShard>> shards;
  for (std::uint32_t fleet = 1; fleet <= count; ++fleet) {
    federate::InProcessShardOptions options;
    options.fleet = fleet;
    options.engine = exact_tou_options();
    options.server.port = 0;
    // The injected slow shard: only its *primary* stalls.
    if (fleet == 2) options.server.worker_delay = primary_delay;
    if (replicas) options.replica = serve::ServerOptions{};
    auto shard = std::make_unique<federate::InProcessShard>(options);
    for (int t = 1; t <= kEpochs; ++t)
      shard->store().publish(shard_at(fleet, t));
    shards.push_back(std::move(shard));
  }
  return shards;
}

federate::ShardMap map_of(
    const std::vector<std::unique_ptr<federate::InProcessShard>>& shards) {
  std::vector<federate::FleetShard> mapped;
  for (const auto& shard : shards) {
    federate::FleetShard entry;
    entry.fleet = shard->fleet();
    entry.endpoints.push_back(shard->port());
    if (shard->has_replica()) entry.endpoints.push_back(shard->replica_port());
    mapped.push_back(std::move(entry));
  }
  return federate::ShardMap(std::move(mapped));
}

struct FanoutLatency {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::string encoded;  ///< encoded response of the last execution.
};

FanoutLatency time_fanout(federate::FederationFrontend& frontend,
                          const serve::Request& request, std::size_t iters) {
  FanoutLatency latency;
  std::vector<double> times_ms;
  times_ms.reserve(iters);
  serve::Response response;
  for (std::size_t i = 0; i < iters; ++i) {
    const auto start = Clock::now();
    response = frontend.execute(request);
    times_ms.push_back(ms_since(start));
  }
  latency.p50_ms = util::percentile(times_ms, 50.0);
  latency.p99_ms = util::percentile(times_ms, 99.0);
  latency.encoded = serve::encode_response(response);
  return latency;
}

/// The single fleet that metered all `count` shards' VMs itself.
std::string merged_reference(std::size_t count, const serve::Request& request) {
  serve::SnapshotStore store(kEpochs + 1);
  for (int t = 1; t <= kEpochs; ++t) {
    serve::Snapshot merged;
    merged.tick = static_cast<std::uint64_t>(t);
    merged.time_s = t;
    double tenant1_w = 0.0, tenant1_j = 0.0, tenant2_w = 0.0, tenant2_j = 0.0;
    for (std::uint32_t fleet = 1; fleet <= count; ++fleet) {
      const serve::Snapshot shard = shard_at(fleet, t);
      merged.vms.insert(merged.vms.end(), shard.vms.begin(), shard.vms.end());
      tenant1_w += shard.tenants[0].power_w;
      tenant1_j += shard.tenants[0].energy_j;
      tenant2_w += shard.tenants[1].power_w;
      tenant2_j += shard.tenants[1].energy_j;
      merged.total_power_w += shard.total_power_w;
      merged.total_energy_j += shard.total_energy_j;
    }
    merged.tenants = {{1, tenant1_w, tenant1_j}, {2, tenant2_w, tenant2_j}};
    store.publish(merged);
  }
  serve::QueryEngine engine(store, exact_tou_options());
  return serve::encode_response(engine.execute(request));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  if (!bench::json_allowed(json_path)) return 2;

  const std::size_t iters = quick ? 60 : 400;
  const std::vector<std::size_t> shard_counts =
      quick ? std::vector<std::size_t>{1, 2, 4}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const serve::Request request = window_query();
  bool pass = true;

  // --- Section 1: fan-out latency vs shard count ---------------------------
  util::print_banner("federated fan-out latency vs shard count");
  util::TablePrinter fanout_table(
      {"shards", "p50 (ms)", "p99 (ms)", "byte-identical"});
  struct FanoutRow {
    std::size_t shards = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    bool identical = false;
  };
  std::vector<FanoutRow> fanout_rows;
  for (const std::size_t count : shard_counts) {
    auto shards = spin_shards(count);
    federate::FrontendOptions options;
    options.retries = 0;
    federate::FederationFrontend frontend(map_of(shards), options);
    const FanoutLatency latency = time_fanout(frontend, request, iters);
    const bool identical =
        latency.encoded == merged_reference(count, request);
    pass = pass && identical;
    fanout_rows.push_back({count, latency.p50_ms, latency.p99_ms, identical});
    fanout_table.add_row({std::to_string(count),
                          format_double(latency.p50_ms, "%.3f"),
                          format_double(latency.p99_ms, "%.3f"),
                          identical ? "yes" : "NO"});
    for (auto& shard : shards) shard->stop();
  }
  fanout_table.print();
  std::printf(
      "every row compared byte-for-byte against a single merged fleet\n"
      "(Additivity: the roll-up is exact, not close).\n");

  // --- Section 2: hedged requests vs an injected slow shard ---------------
  util::print_banner("hedging win under a slow shard");
  const std::chrono::milliseconds stall(quick ? 20 : 40);
  const std::size_t hedge_iters = quick ? 20 : 50;
  double unhedged_p50 = 0.0, hedged_p50 = 0.0;
  std::uint64_t hedge_wins = 0;
  {
    auto shards = spin_shards(3, stall, /*replicas=*/true);
    federate::FrontendOptions options;
    options.retries = 0;
    options.deadline = std::chrono::milliseconds(2000);
    federate::FederationFrontend unhedged(map_of(shards), options);
    unhedged_p50 = time_fanout(unhedged, request, hedge_iters).p50_ms;

    fleet::Metrics metrics;
    options.hedge = true;
    options.hedge_delay = std::chrono::milliseconds(2);
    options.metrics = &metrics;
    federate::FederationFrontend hedged(map_of(shards), options);
    hedged_p50 = time_fanout(hedged, request, hedge_iters).p50_ms;
    hedge_wins = metrics.counter("vmpower_fed_hedge_wins_total", "").value();
    for (auto& shard : shards) shard->stop();
  }
  const bool hedging_wins =
      hedge_wins > 0 &&
      hedged_p50 < static_cast<double>(stall.count());
  pass = pass && hedging_wins;
  util::TablePrinter hedge_table({"mode", "p50 (ms)"});
  hedge_table.add_row({"unhedged", format_double(unhedged_p50, "%.3f")});
  hedge_table.add_row({"hedged", format_double(hedged_p50, "%.3f")});
  hedge_table.print();
  std::printf(
      "slow primary stalls %lld ms per request; hedged p50 beats the stall:"
      " %s (replica wins: %llu)\n",
      static_cast<long long>(stall.count()), hedging_wins ? "yes" : "NO",
      static_cast<unsigned long long>(hedge_wins));

  // --- Section 3: graceful degradation with a killed shard ----------------
  util::print_banner("partial roll-up after a shard death");
  bool partial_ok = false;
  std::string missing_list;
  {
    auto shards = spin_shards(3);
    federate::FrontendOptions options;
    options.retries = 0;
    options.deadline = std::chrono::milliseconds(300);
    federate::FederationFrontend frontend(map_of(shards), options);
    shards[1]->stop();  // fleet 2 dies mid-run.
    const serve::Response degraded = frontend.execute(request);
    // Survivors: fleets 1 and 3 contribute (1+3) kWh/s over the window.
    const double expected = 4.0 * (request.t1 - request.t0) * kJPerKwh;
    partial_ok = degraded.ok && !degraded.complete &&
                 degraded.missing_shards.size() == 1 &&
                 degraded.missing_shards[0] == 2 &&
                 degraded.values.size() == 1 &&
                 degraded.values[0] == expected;
    for (const std::uint32_t fleet : degraded.missing_shards) {
      if (!missing_list.empty()) missing_list += ",";
      missing_list += std::to_string(fleet);
    }
    std::printf(
        "killed fleet 2 -> ok=%d complete=%d missing=[%s] survivors' sum "
        "exact=%d\n",
        degraded.ok ? 1 : 0, degraded.complete ? 1 : 0, missing_list.c_str(),
        degraded.values.size() == 1 && degraded.values[0] == expected ? 1
                                                                      : 0);
    for (auto& shard : shards) shard->stop();
  }
  pass = pass && partial_ok;

  std::printf("ACCEPTANCE: %s\n", pass ? "pass" : "FAIL");

  if (json_path != nullptr) {
    std::FILE* out = std::fopen(json_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    char date[16] = "unknown";
    const std::time_t now_t = std::time(nullptr);
    if (std::tm* tm = std::localtime(&now_t))
      std::strftime(date, sizeof date, "%Y-%m-%d", tm);
    std::fprintf(out,
                 "{\n"
                 "  \"context\": {\n"
                 "    \"date\": \"%s\",\n"
                 "    \"benchmark\": \"bench_federation\",\n"
                 "    \"build_type\": \"%s\",\n"
                 "    \"config\": {\n"
                 "      \"epochs_per_shard\": %d,\n"
                 "      \"query\": \"%s\",\n"
                 "      \"iterations\": %zu,\n"
                 "      \"slow_primary_stall_ms\": %lld,\n"
                 "      \"hedge_delay_ms\": 2\n"
                 "    }\n"
                 "  },\n"
                 "  \"fanout\": [\n",
                 date, bench::kBuildType, kEpochs, request.canonical().c_str(),
                 iters,
                 static_cast<long long>(stall.count()));
    for (std::size_t i = 0; i < fanout_rows.size(); ++i)
      std::fprintf(out,
                   "    {\"shards\": %zu, \"p50_ms\": %.3f, "
                   "\"p99_ms\": %.3f, \"byte_identical\": %s}%s\n",
                   fanout_rows[i].shards, fanout_rows[i].p50_ms,
                   fanout_rows[i].p99_ms,
                   fanout_rows[i].identical ? "true" : "false",
                   i + 1 < fanout_rows.size() ? "," : "");
    std::fprintf(
        out,
        "  ],\n"
        "  \"hedging\": {\n"
        "    \"unhedged_p50_ms\": %.3f,\n"
        "    \"hedged_p50_ms\": %.3f,\n"
        "    \"hedge_wins\": %llu\n"
        "  },\n"
        "  \"partial\": {\n"
        "    \"killed_fleet\": 2,\n"
        "    \"missing_shards\": \"%s\",\n"
        "    \"flagged_and_exact\": %s\n"
        "  },\n"
        "  \"acceptance\": {\n"
        "    \"criterion\": \"federated responses byte-identical to a merged "
        "single fleet at every shard count; hedged p50 beats the injected "
        "stall; a killed shard degrades to a flagged partial naming the "
        "missing fleet\",\n"
        "    \"pass\": %s\n"
        "  }\n"
        "}\n",
        unhedged_p50, hedged_p50, static_cast<unsigned long long>(hedge_wins),
        missing_list.c_str(), partial_ok ? "true" : "false",
        pass ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }
  return pass ? 0 : 1;
}
