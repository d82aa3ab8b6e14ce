// Durable attribution ledger benchmarks: append throughput, crash-recovery
// time as a function of log size, and hot (retention ring) vs cold (ledger
// fall-through) window query latency.
//
// Every section rotates every 1 024 records: 3.8 MB of this record shape,
// under the 8 MiB byte cap, so the record threshold decides every rotation.
//
// Section 1 — append: records mirror a 128-VM fleet snapshot (~3.7 KB
// framed). The append that fills a segment also seals it in place (index
// and footer appended, rename, cold magic), so the rate includes every seal
// an engine tick would pay for.
//
// Section 2 — recovery: a freshly opened Ledger reads only the magic, footer
// and index (24 B per record) of every sealed segment, before the first
// append. The log sizes are whole numbers of segments, so no tail WAL is
// scanned and the time is the sealed history's alone.
//
// Section 3 — hot vs cold: the same window query is answered by a store
// whose ring still holds the window, then by a store whose ring lost it
// (small retention) and a ledger answers through the fall-through. The
// acceptance bar is byte-identical encoded responses — the cold path must
// be indistinguishable from the ring it replaces, in content if not in
// latency — plus cold latency staying in single-digit milliseconds. The
// byte comparison covers every window start over 128 s on a half-second
// step, so cold bounds land on records and between them (at full size, on
// both sides of a segment boundary too); one window is timed.
//
// --quick trims sizes for the CI smoke job; --json PATH writes a
// BENCH_ledger.json blob (Release builds only).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ledger/format.hpp"
#include "ledger/ledger.hpp"
#include "serve/protocol.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include "bench_json.hpp"

using namespace vmp;

namespace {

constexpr std::size_t kHosts = 16;
constexpr std::size_t kVmsPerHost = 8;
constexpr std::uint64_t kSegmentRecords = 1024;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Synthetic fleet trajectory with linear cumulative energies (as in
/// bench_serve_throughput), so spot checks catch any miscount.
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

ledger::TickRecord record_at(std::uint64_t epoch) {
  serve::Snapshot snapshot = snapshot_at(static_cast<double>(epoch));
  snapshot.epoch = epoch;
  return snapshot;
}

/// Unique scratch directory under the system temp root; removed by the
/// caller once its section passes.
std::filesystem::path scratch_dir(const char* tag) {
  const auto stamp = static_cast<unsigned long long>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return std::filesystem::temp_directory_path() /
         ("vmpower-bench-ledger-" + std::string(tag) + "-" +
          std::to_string(stamp));
}

std::string format_double(double value, const char* format) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, format, value);
  return buffer;
}

struct AppendResult {
  double records_per_s = 0.0;
  double mb_per_s = 0.0;
  std::uint64_t sealed_segments = 0;
};

AppendResult run_append(std::size_t records) {
  const std::filesystem::path dir = scratch_dir("append");
  AppendResult result;
  {
    ledger::LedgerOptions options;
    options.dir = dir;
    options.segment_max_records = kSegmentRecords;
    ledger::Ledger log(options);
    const auto start = Clock::now();
    for (std::uint64_t epoch = 1; epoch <= records; ++epoch)
      log.append(record_at(epoch));
    const double wall_s = ms_since(start) / 1e3;
    const ledger::Stats stats = log.stats();
    result.records_per_s = static_cast<double>(records) / wall_s;
    result.mb_per_s =
        static_cast<double>(stats.appended_bytes) / (1 << 20) / wall_s;
    result.sealed_segments = stats.cold_segments;
  }
  std::filesystem::remove_all(dir);
  return result;
}

/// Median time to open a sealed log of `records` records.
double run_recovery(std::size_t records, std::size_t runs) {
  const std::filesystem::path dir = scratch_dir("recovery");
  ledger::LedgerOptions options;
  options.dir = dir;
  options.segment_max_records = kSegmentRecords;
  {
    ledger::Ledger log(options);
    for (std::uint64_t epoch = 1; epoch <= records; ++epoch)
      log.append(record_at(epoch));
  }
  std::vector<double> times_ms;
  for (std::size_t run = 0; run < runs; ++run) {
    const auto start = Clock::now();
    const ledger::Ledger log(options);
    times_ms.push_back(ms_since(start));
  }
  std::filesystem::remove_all(dir);
  return util::percentile(times_ms, 50.0);
}

struct QueryLatency {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::string encoded;  ///< encoded response bytes of the last execution.
};

QueryLatency time_query(serve::QueryEngine& engine,
                        const serve::Request& request, std::size_t iters) {
  QueryLatency latency;
  std::vector<double> times_ms;
  times_ms.reserve(iters);
  serve::Response response;
  for (std::size_t i = 0; i < iters; ++i) {
    const auto start = Clock::now();
    response = engine.execute(request);
    times_ms.push_back(ms_since(start));
  }
  latency.p50_ms = util::percentile(times_ms, 50.0);
  latency.p99_ms = util::percentile(times_ms, 99.0);
  latency.encoded = serve::encode_response(response);
  return latency;
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

  const std::size_t append_records = quick ? 4000 : 40000;
  const std::size_t history = quick ? 4096 : 16384;
  const std::size_t query_iters = quick ? 200 : 2000;

  // --- Section 1: append throughput ---------------------------------------
  util::print_banner("ledger append throughput (sealing in place)");
  const AppendResult append = run_append(append_records);
  util::TablePrinter append_table(
      {"records", "segments sealed", "records/s", "MB/s"});
  append_table.add_row({std::to_string(append_records),
                        std::to_string(append.sealed_segments),
                        format_double(append.records_per_s, "%.0f"),
                        format_double(append.mb_per_s, "%.1f")});
  append_table.print();

  // --- Section 2: recovery time vs log size -------------------------------
  util::print_banner("recovery time of a sealed log");
  const std::size_t sizes[] = {history / 4, history / 2, history};
  const std::size_t recovery_runs = quick ? 2 : 5;
  util::TablePrinter recovery_table({"records", "segments", "open (ms)"});
  double recovery_ms[3];
  for (int i = 0; i < 3; ++i) {
    recovery_ms[i] = run_recovery(sizes[i], recovery_runs);
    recovery_table.add_row({std::to_string(sizes[i]),
                            std::to_string(sizes[i] / kSegmentRecords),
                            format_double(recovery_ms[i], "%.2f")});
  }
  recovery_table.print();

  // --- Section 3: hot vs cold window query latency ------------------------
  util::print_banner("hot vs cold window queries");
  const std::filesystem::path dir = scratch_dir("query");
  int status = 0;
  {
    // Cold setup: a small ring over a long sealed history.
    ledger::LedgerOptions options;
    options.dir = dir;
    options.segment_max_records = kSegmentRecords;
    ledger::Ledger log(options);
    serve::SnapshotStore cold_store(256);
    cold_store.set_ledger(&log);
    // Hot setup: a ring wide enough that the whole history stays resident.
    serve::SnapshotStore hot_store(history);
    for (std::uint64_t epoch = 1; epoch <= history; ++epoch) {
      const serve::Snapshot snapshot = snapshot_at(static_cast<double>(epoch));
      hot_store.publish(snapshot);
      cold_store.publish(snapshot);
    }

    serve::Request window;
    window.kind = serve::QueryKind::kTenantEnergy;
    window.tenant = 2;
    window.t0 = static_cast<double>(history / 8);      // deep history.
    window.t1 = static_cast<double>(history / 8 + 64);
    serve::QueryEngineOptions uncached;
    uncached.cache_capacity = 0;  // measure resolution, not the LRU.
    serve::QueryEngine hot_engine(hot_store, uncached);
    serve::QueryEngine cold_engine(cold_store, uncached);

    const QueryLatency hot = time_query(hot_engine, window, query_iters);
    const QueryLatency cold = time_query(cold_engine, window, query_iters);
    std::size_t oracle_windows = 0, mismatches = 0;
    for (double t0 = window.t0; t0 <= window.t0 + 128.0; t0 += 0.5) {
      serve::Request probe = window;
      probe.t0 = t0;
      probe.t1 = t0 + (window.t1 - window.t0);
      const serve::Response expected = hot_engine.execute(probe);
      if (!expected.ok || serve::encode_response(expected) !=
                              serve::encode_response(cold_engine.execute(probe)))
        ++mismatches;
      ++oracle_windows;
    }
    const bool identical = hot.encoded == cold.encoded && mismatches == 0;

    util::TablePrinter query_table({"path", "p50 (ms)", "p99 (ms)"});
    query_table.add_row({"hot (ring)", format_double(hot.p50_ms, "%.4f"),
                         format_double(hot.p99_ms, "%.4f")});
    query_table.add_row({"cold (ledger)", format_double(cold.p50_ms, "%.4f"),
                         format_double(cold.p99_ms, "%.4f")});
    query_table.print();
    const bool pass = identical && cold.p50_ms < 10.0;
    std::printf(
        "window [%0.f, %0.f] over %zu-epoch history (ring retains 256)\n"
        "oracle: %zu window starts in [%0.f, %0.f], %zu hot/cold mismatches\n"
        "byte-identical hot vs cold responses: %s | cold p50 < 10 ms: %s\n"
        "ACCEPTANCE: %s\n",
        window.t0, window.t1, history, oracle_windows, window.t0,
        window.t0 + 128.0, mismatches, identical ? "yes" : "NO",
        cold.p50_ms < 10.0 ? "yes" : "NO", pass ? "pass" : "FAIL");
    if (!pass) status = 1;

    if (json_path != nullptr) {
      std::FILE* out = std::fopen(json_path, "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_path);
        std::filesystem::remove_all(dir);
        return 1;
      }
      char date[16] = "unknown";
      const std::time_t now_t = std::time(nullptr);
      if (std::tm* tm = std::localtime(&now_t))
        std::strftime(date, sizeof date, "%Y-%m-%d", tm);
      std::fprintf(
          out,
          "{\n"
          "  \"context\": {\n"
          "    \"date\": \"%s\",\n"
          "    \"benchmark\": \"bench_ledger\",\n"
          "    \"build_type\": \"%s\",\n"
          "    \"config\": {\n"
          "      \"vms_per_record\": %zu,\n"
          "      \"append_records\": %zu,\n"
          "      \"history_epochs\": %zu,\n"
          "      \"ring_retention_cold\": 256,\n"
          "      \"segment_max_records\": %llu,\n"
          "      \"query_iterations\": %zu\n"
          "    }\n"
          "  },\n"
          "  \"append\": {\n"
          "    \"records_per_s\": %.0f,\n"
          "    \"mb_per_s\": %.1f,\n"
          "    \"segments_sealed\": %llu\n"
          "  },\n"
          "  \"sealed_recovery_ms\": [\n",
          date, bench::kBuildType, kHosts * kVmsPerHost, append_records,
          history, static_cast<unsigned long long>(kSegmentRecords),
          query_iters, append.records_per_s, append.mb_per_s,
          static_cast<unsigned long long>(append.sealed_segments));
      for (int i = 0; i < 3; ++i)
        std::fprintf(out,
                     "    {\"records\": %zu, \"segments\": %llu, "
                     "\"open_ms\": %.2f}%s\n",
                     sizes[i],
                     static_cast<unsigned long long>(sizes[i] /
                                                     kSegmentRecords),
                     recovery_ms[i], i < 2 ? "," : "");
      std::fprintf(
          out,
          "  ],\n"
          "  \"window_query\": {\n"
          "    \"hot_p50_ms\": %.4f,\n"
          "    \"hot_p99_ms\": %.4f,\n"
          "    \"cold_p50_ms\": %.4f,\n"
          "    \"cold_p99_ms\": %.4f\n"
          "  },\n"
          "  \"acceptance\": {\n"
          "    \"criterion\": \"cold (ledger fall-through) responses "
          "byte-identical to hot (ring) responses; cold p50 < 10 ms\",\n"
          "    \"oracle_windows\": %zu,\n"
          "    \"byte_identical\": %s,\n"
          "    \"pass\": %s\n"
          "  }\n"
          "}\n",
          hot.p50_ms, hot.p99_ms, cold.p50_ms, cold.p99_ms, oracle_windows,
          identical ? "true" : "false", pass ? "true" : "false");
      std::fclose(out);
      std::printf("wrote %s\n", json_path);
    }
  }
  std::filesystem::remove_all(dir);
  return status;
}
