// Query service benchmarks: in-process transport throughput (cache on/off)
// and pipelined TCP completion-order latency (ordered vs out-of-order vs
// out-of-order + coalescing).
//
// Section 1 — throughput: the in-process transport applies the server's
// framing and runs the same Dispatcher the TCP workers do, so these numbers
// measure the whole request path (frame checks -> decode -> QueryEngine ->
// encode) minus only the kernel socket hops. Two engines answer an identical
// mixed workload against the same snapshot store: one with the sharded LRU
// result cache, one with the cache disabled. The acceptance bar is a >= 5x
// speedup on the repeated window+cost mix.
//
// Section 2 — pipelined latency: one client pipelines a mixed workload
// (expensive unique tenant-cost windows, duplicated in adjacent bursts,
// interleaved with cheap point queries) over real TCP and measures
// per-class send->receive latency. Three arms send the same requests:
//   ordered     without ids, coalesce=false — the connection's reader
//               answers each request before it reads the next, so responses
//               come in arrival order (head-of-line blocking on the slow
//               windows), and responses match requests by position;
//   ooo         id-stamped, so responses complete out of order; no
//               coalescing;
//   ooo+coal    id-stamped plus in-flight coalescing of the duplicates.
// Acceptance: cheap-query p99 under ooo is >= 2x lower than ordered, every
// response body (the frame minus its prefix and id) is byte-identical
// across arms, and coalescing reduces duplicate evaluations (cache_misses
// counter).
//
// --quick trims sizes for the CI smoke job; --pipelined runs section 2 only;
// --json PATH writes the pipelined results as a BENCH_serve.json blob
// (Release builds only).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/pricing.hpp"
#include "fleet/metrics.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/transport.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include "bench_json.hpp"

using namespace vmp;

namespace {

constexpr std::size_t kSnapshots = 512;
constexpr std::size_t kVmsPerHost = 8;
constexpr std::size_t kHosts = 16;

/// Synthetic fleet trajectory: enough VMs that snapshot searches are not
/// trivially cache-resident, linear energies so any miscount would be
/// visible in spot checks.
serve::Snapshot snapshot_at(double t) {
  serve::Snapshot snapshot;
  snapshot.tick = static_cast<std::uint64_t>(t);
  snapshot.time_s = t;
  snapshot.vms.reserve(kHosts * kVmsPerHost);
  for (std::uint32_t host = 0; host < kHosts; ++host)
    for (std::uint32_t vm = 1; vm <= kVmsPerHost; ++vm) {
      serve::VmRecord record;
      record.host = host;
      record.vm = vm;
      record.tenant = 1 + (host + vm) % 4;
      record.power_w = 10.0 + vm;
      record.energy_j = (10.0 + vm) * t;
      snapshot.vms.push_back(record);
      snapshot.total_power_w += record.power_w;
    }
  for (core::TenantId tenant = 1; tenant <= 4; ++tenant) {
    serve::TenantRecord record;
    record.tenant = tenant;
    record.power_w = 100.0;
    record.energy_j = 100.0 * t;
    snapshot.tenants.push_back(record);
  }
  snapshot.total_energy_j = snapshot.total_power_w * t;
  return snapshot;
}

/// Point workload: dashboards polling instant power.
std::vector<std::string> point_workload() {
  return {"fleet-power", "stats", "vm-power 3 5", "tenant-power 2"};
}

/// Window/cost workload: billing pollers re-issuing the same aggregation
/// queries. Uncached, every tenant-cost walks the TOU segments of its
/// window, one retention-ring search per rate boundary — the work the
/// epoch-keyed cache elides on the re-issue.
std::vector<std::string> window_workload() {
  return {
      "vm-energy 3 5 64 448",    "tenant-energy 1 64 448",
      "tenant-energy 3 128 384", "tenant-cost 1 64 448",
      "tenant-cost 2 0 512",     "tenant-cost 3 32 480",
      "tenant-cost 4 100 400",
  };
}

struct RunResult {
  double wall_s = 0.0;
  double qps = 0.0;
};

RunResult drive(serve::QueryEngine& engine, std::size_t threads,
                const std::vector<std::string>& lines, int requests_per_thread) {
  std::vector<std::string> frames;
  frames.reserve(lines.size());
  for (const std::string& line : lines) {
    const auto request = serve::parse_request_text(line);
    frames.push_back(
        serve::encode_frame(serve::encode_request(*request)));
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t thread = 0; thread < threads; ++thread)
    pool.emplace_back([&engine, &frames, requests_per_thread] {
      serve::InProcessTransport transport(engine);
      for (int i = 0; i < requests_per_thread; ++i) {
        const std::string& frame = frames[i % frames.size()];
        const std::string response = transport.roundtrip_binary(frame);
        if (response.size() <= serve::kFramePrefixBytes)
          std::fprintf(stderr, "short response\n");
      }
    });
  for (std::thread& worker : pool) worker.join();

  RunResult result;
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  result.qps = static_cast<double>(threads * requests_per_thread) /
               result.wall_s;
  return result;
}

std::string format_double(double value, const char* format) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, format, value);
  return buffer;
}

// --- pipelined completion-order latency -------------------------------------

/// Expensive-class stall applied by the server to tenant-cost queries (the
/// answering thread sleeps, so the machine's cores stay free for the cheap
/// class). A CPU-bound slow query would also block the ordered arm, but on
/// the small CI boxes this bench runs on it starves the cheap workers of
/// timeslices and the measurement degenerates into scheduler noise.
constexpr std::chrono::milliseconds kCostStall{100};

/// The compressed TOU schedule that gives tenant-cost a real computation on
/// top of the stall: a 1.8 s "day" puts two rate boundaries in every day,
/// ~15k retention-ring searches across a 448 s window — a window wide enough
/// that back-to-back duplicates overlap in flight and coalesce.
core::TouRateSchedule expensive_tou() {
  core::TouRateSchedule tou;
  tou.offpeak_usd_per_kwh = 0.10;
  tou.peak_usd_per_kwh = 0.25;
  tou.seconds_per_hour = 0.0005;
  return tou;
}

struct PipelineItem {
  bool expensive = false;
  std::string id_less;     ///< request frame without an id.
  std::string id_stamped;  ///< the same request, id = item index.
};

/// Mixed pipelined workload: per group, one unique expensive tenant-cost
/// window duplicated `dup` times back to back (adjacent duplicates are what
/// coalescing merges), then a run of cheap point queries.
std::vector<PipelineItem> pipeline_workload(std::size_t groups,
                                            std::size_t dup,
                                            std::size_t cheap_per_group) {
  std::vector<PipelineItem> items;
  const auto add = [&items](bool expensive, const std::string& line) {
    const std::string body =
        serve::encode_request(*serve::parse_request_text(line));
    items.push_back({expensive, serve::encode_frame(body),
                     serve::encode_frame_with_id(body, items.size())});
  };
  const char* cheap[] = {"fleet-power", "vm-power 3 5", "tenant-power 2",
                         "stats"};
  for (std::size_t g = 0; g < groups; ++g) {
    const std::string window = "tenant-cost " + std::to_string(1 + g % 4) +
                               " " + std::to_string(20 + g) + " " +
                               std::to_string(468 + g);
    for (std::size_t d = 0; d < dup; ++d) add(true, window);
    for (std::size_t c = 0; c < cheap_per_group; ++c) add(false, cheap[c % 4]);
  }
  return items;
}

struct PipelineResult {
  std::vector<double> cheap_ms, expensive_ms;
  /// Item index -> response body (the frame minus its prefix and id).
  std::map<std::uint64_t, std::string> bodies;
  std::uint64_t evaluations = 0;  ///< engine cache misses == evals run.
  std::uint64_t coalesced = 0;
  std::uint64_t reordered = 0;
  double wall_s = 0.0;
};

/// Streams the workload over one TCP connection with a bounded in-flight
/// window (a pipelining client, not a fire-and-forget flood) and clocks each
/// request send -> response receive. Id-stamped requests complete out of
/// order and name their item; id-less ones come back in arrival order.
PipelineResult drive_pipelined(const serve::SnapshotStore& store,
                               bool with_ids, bool coalesce,
                               const std::vector<PipelineItem>& items,
                               std::size_t in_flight_window) {
  using Clock = std::chrono::steady_clock;
  fleet::Metrics metrics;
  serve::QueryEngineOptions engine_options;
  engine_options.tou = expensive_tou();
  engine_options.coalesce = coalesce;
  serve::QueryEngine engine(store, engine_options);
  serve::ServerOptions server_options;
  server_options.workers = 10;
  server_options.queue_capacity = 2 * in_flight_window;
  server_options.tokens_per_s = 1e9;  // admission is not under test here.
  server_options.token_burst = 1e6;
  server_options.cost_query_delay = kCostStall;
  serve::Server server(engine, metrics, server_options);
  serve::Client client(server.port());

  PipelineResult result;
  std::vector<Clock::time_point> sent(items.size());
  const auto start = Clock::now();
  std::size_t next = 0, received = 0;
  while (received < items.size()) {
    while (next < items.size() && next - received < in_flight_window) {
      sent[next] = Clock::now();
      client.send_raw(with_ids ? items[next].id_stamped : items[next].id_less);
      ++next;
    }
    const std::string frame = client.recv_frame();
    const auto now = Clock::now();
    std::uint64_t id = received;
    std::size_t body_at = serve::kFramePrefixBytes;
    if (with_ids) {
      id = 0;
      for (std::size_t b = 0; b < serve::kFrameIdBytes; ++b)
        id = (id << 8) | static_cast<std::uint8_t>(frame[body_at + b]);
      body_at += serve::kFrameIdBytes;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(now - sent[id]).count();
    (items[id].expensive ? result.expensive_ms : result.cheap_ms)
        .push_back(ms);
    result.bodies.emplace(id, frame.substr(body_at));
    ++received;
  }
  result.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.evaluations = engine.cache_misses();
  result.coalesced = engine.coalesced();
  result.reordered = static_cast<std::uint64_t>(
      metrics
          .counter("vmpower_serve_responses_reordered_total",
                   "Responses written out of their arrival position")
          .value());
  server.stop();
  return result;
}

int run_pipelined(bool quick, const char* json_path) {
  serve::SnapshotStore store(kSnapshots);
  for (std::size_t t = 1; t <= kSnapshots; ++t)
    store.publish(snapshot_at(static_cast<double>(t)));

  const std::size_t groups = quick ? 3 : 10;
  const std::size_t dup = 2;
  const std::size_t cheap_per_group = 600;
  const std::size_t in_flight = 16;
  const auto items = pipeline_workload(groups, dup, cheap_per_group);

  util::print_banner("pipelined completion order (TCP, 10 workers)");
  std::printf(
      "%zu requests on one pipelined connection (window %zu): %zu expensive "
      "tenant-cost\nwindows (x%zu duplicates, ~15k TOU boundaries + 100 ms stall each) "
      "interleaved with %zu cheap\npoint queries per group\n",
      items.size(), in_flight, groups, dup, groups * cheap_per_group);

  const struct {
    const char* name;
    bool with_ids, coalesce;
  } modes[] = {{"ordered", false, false},
               {"ooo", true, false},
               {"ooo+coal", true, true}};
  constexpr int kModes = 3;

  PipelineResult results[kModes];
  for (int m = 0; m < kModes; ++m)
    results[m] = drive_pipelined(store, modes[m].with_ids, modes[m].coalesce,
                                 items, in_flight);

  // Byte identity of every request's response body across the arms.
  bool identical = true;
  for (int m = 1; m < kModes; ++m)
    for (const auto& [id, body] : results[0].bodies) {
      const auto it = results[m].bodies.find(id);
      if (it == results[m].bodies.end() || it->second != body) {
        identical = false;
        std::fprintf(stderr, "BYTE MISMATCH: request %llu mode %s\n",
                     static_cast<unsigned long long>(id), modes[m].name);
      }
    }

  util::TablePrinter table({"mode", "class", "p50 (ms)", "p99 (ms)",
                            "wall (ms)", "evals", "coalesced", "reordered"});
  for (int m = 0; m < kModes; ++m) {
    const PipelineResult& r = results[m];
    table.add_row({modes[m].name, "cheap",
                   format_double(util::percentile(r.cheap_ms, 50.0),
                                 "%.3f"),
                   format_double(util::percentile(r.cheap_ms, 99.0),
                                 "%.3f"),
                   format_double(r.wall_s * 1e3, "%.1f"),
                   std::to_string(r.evaluations),
                   std::to_string(r.coalesced),
                   std::to_string(r.reordered)});
    table.add_row(
        {modes[m].name, "expensive",
         format_double(util::percentile(r.expensive_ms, 50.0), "%.3f"),
         format_double(util::percentile(r.expensive_ms, 99.0), "%.3f"),
         "", "", "", ""});
  }
  table.print();

  const double ordered_p99 = util::percentile(results[0].cheap_ms, 99.0);
  const double ooo_p99 = util::percentile(results[1].cheap_ms, 99.0);
  const double speedup = ordered_p99 / ooo_p99;
  const bool dedup = results[2].evaluations < results[1].evaluations &&
                     results[2].coalesced > 0;
  const bool pass = speedup >= 2.0 && dedup && identical;
  std::printf(
      "\ncheap p99: ordered %.3f ms vs out-of-order %.3f ms -> %.1fx "
      "(acceptance >= 2x)\ncoalescing: %llu -> %llu evaluations (%llu "
      "attached in flight)\nbyte-identical response bodies across modes: "
      "%s\nACCEPTANCE: %s\n",
      ordered_p99, ooo_p99, speedup,
      static_cast<unsigned long long>(results[1].evaluations),
      static_cast<unsigned long long>(results[2].evaluations),
      static_cast<unsigned long long>(results[2].coalesced),
      identical ? "yes" : "NO", pass ? "pass" : "FAIL");

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
                 "    \"benchmark\": \"bench_serve_throughput --pipelined\",\n"
                 "    \"build_type\": \"%s\",\n"
                 "    \"config\": {\n"
                 "      \"requests\": %zu,\n"
                 "      \"groups\": %zu,\n"
                 "      \"duplicates_per_window\": %zu,\n"
                 "      \"cheap_per_group\": %zu,\n"
                 "      \"in_flight_window\": %zu,\n"
                 "      \"workers\": 10,\n"
                 "      \"cost_stall_ms\": %lld,\n"
                 "      \"tou_boundaries_per_cost_query\": \"~15k\"\n"
                 "    }\n"
                 "  },\n"
                 "  \"results\": [\n",
                 date, bench::kBuildType, items.size(), groups, dup,
                 cheap_per_group, in_flight,
                 static_cast<long long>(kCostStall.count()));
    for (int m = 0; m < kModes; ++m) {
      const PipelineResult& r = results[m];
      std::fprintf(
          out,
          "    {\"mode\": \"%s\", \"cheap_p50_ms\": %.3f, "
          "\"cheap_p99_ms\": %.3f, \"expensive_p50_ms\": %.3f, "
          "\"expensive_p99_ms\": %.3f, \"wall_ms\": %.1f, "
          "\"evaluations\": %llu, \"coalesced\": %llu, "
          "\"reordered\": %llu}%s\n",
          modes[m].name, util::percentile(r.cheap_ms, 50.0),
          util::percentile(r.cheap_ms, 99.0),
          util::percentile(r.expensive_ms, 50.0),
          util::percentile(r.expensive_ms, 99.0), r.wall_s * 1e3,
          static_cast<unsigned long long>(r.evaluations),
          static_cast<unsigned long long>(r.coalesced),
          static_cast<unsigned long long>(r.reordered),
          m + 1 < kModes ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"acceptance\": {\n"
                 "    \"criterion\": \"cheap p99 out-of-order >= 2x lower "
                 "than ordered; coalescing reduces evaluations; response "
                 "bodies byte-identical across modes\",\n"
                 "    \"cheap_p99_speedup\": %.1f,\n"
                 "    \"byte_identical\": %s,\n"
                 "    \"pass\": %s\n"
                 "  }\n"
                 "}\n",
                 speedup, identical ? "true" : "false",
                 pass ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }
  return pass ? 0 : 1;
}

int run_throughput(bool quick) {
  serve::SnapshotStore store(kSnapshots);
  for (std::size_t t = 1; t <= kSnapshots; ++t)
    store.publish(snapshot_at(static_cast<double>(t)));

  core::TouRateSchedule tou;
  tou.offpeak_usd_per_kwh = 0.10;
  tou.peak_usd_per_kwh = 0.25;
  // A compressed 12 s day puts ~85 rate boundaries inside the ring, the
  // granularity a year-long accounting horizon would have at full scale.
  tou.seconds_per_hour = 0.5;

  const int requests_per_thread = quick ? 2000 : 20000;
  util::print_banner("query service throughput (in-process transport)");
  std::printf("hardware threads: %u | %zu snapshots x %zu VMs | %d req/thread\n",
              std::thread::hardware_concurrency(), kSnapshots,
              kHosts * kVmsPerHost, requests_per_thread);

  const struct {
    const char* name;
    std::vector<std::string> lines;
  } workloads[] = {{"point", point_workload()},
                   {"window+cost", window_workload()}};

  util::TablePrinter table({"workload", "threads", "cache", "wall (ms)", "QPS",
                            "hit rate", "speedup"});
  for (const auto& workload : workloads)
    for (const std::size_t threads : {1u, 2u, 4u}) {
      serve::QueryEngineOptions uncached_options;
      uncached_options.cache_capacity = 0;
      uncached_options.tou = tou;
      serve::QueryEngine uncached(store, uncached_options);
      const RunResult cold =
          drive(uncached, threads, workload.lines, requests_per_thread);

      serve::QueryEngineOptions cached_options;
      cached_options.tou = tou;
      serve::QueryEngine cached(store, cached_options);
      const RunResult warm =
          drive(cached, threads, workload.lines, requests_per_thread);
      const double total = static_cast<double>(cached.cache_hits() +
                                               cached.cache_misses());
      const double hit_rate =
          total > 0.0 ? static_cast<double>(cached.cache_hits()) / total : 0.0;

      table.add_row({workload.name, std::to_string(threads), "off",
                     format_double(cold.wall_s * 1e3, "%.1f"),
                     format_double(cold.qps, "%.0f"), "-", "1.0x"});
      table.add_row({workload.name, std::to_string(threads), "on",
                     format_double(warm.wall_s * 1e3, "%.1f"),
                     format_double(warm.qps, "%.0f"),
                     format_double(100.0 * hit_rate, "%.1f%%"),
                     format_double(warm.qps / cold.qps, "%.1fx")});
    }
  table.print();
  std::printf(
      "\ncached vs uncached compare identical workloads. The acceptance bar\n"
      "is >= 5x on the repeated window+cost mix: uncached, every tenant-cost\n"
      "re-walks its TOU segments with one retention-ring search per rate\n"
      "boundary; cached, the epoch-keyed LRU replays the pinned epoch pair.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false, pipelined_only = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--pipelined") == 0) pipelined_only = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];
  }
  if (!bench::json_allowed(json_path)) return 2;
  int status = 0;
  if (!pipelined_only) status = run_throughput(quick);
  if (status == 0) status = run_pipelined(quick, json_path);
  return status;
}
