// bench_pipeline: vmpower's end-to-end pipeline benchmark.
//
// One process stands up the stack a metered, federated fleet runs:
//
//   FleetEngine --tick observer--> SnapshotStore + Ledger --> QueryEngine
//     --> serve::Server per shard --> FederationFrontend --> serve::Server
//
// and drives both units of cost the fleet pays:
//
//   * the host-tick: back-to-back FleetEngine::run(1) calls, snapshot
//     publish and ledger append included (the "tick phase");
//   * the query: two closed-loop TCP clients against the federated server,
//     each waiting for its reply, while (on query-fed) a ticker thread keeps
//     every shard ticking at a fixed cadence so appends, ring evictions and
//     cache invalidation run beside the reads (the "mixed stream"); then
//     queries sent one at a time, so each one's cost can be told apart
//     (the "probe").
//
// Workloads differ in fleet shape, shard count and how the timed window is
// split between the phases (see workloads()). Every workload reports every
// end-to-end metric. The end-to-end figures are process CPU time scaled to a
// fixed machine speed (see end_to_end_metrics and Yardstick); the wall-time
// figures are reported by the traced run.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the passes twice,
// untraced and then with spans recorded around the calls into each module
// (the program's own obs::Tracer stays disarmed), adds a 1-thread baseline
// and a per-query replay through each serve level, and prints the per-layer
// metrics. The last stdout line is always one JSON object with the keys
// correct, attempted, failed and metrics.
//
//   bench_pipeline --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
//   bench_pipeline --spec        metric and workload declarations as JSON
//   bench_pipeline --self-test   the benchmark's own determinism checks

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/units.hpp"
#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "core/pricing.hpp"
#include "federate/frontend.hpp"
#include "federate/spin.hpp"
#include "fleet/engine.hpp"
#include "ledger/format.hpp"
#include "ledger/ledger.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/profile.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/transport.hpp"
#include "spans.hpp"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PIPEBENCH_COMPILER
#define PIPEBENCH_COMPILER "unknown"
#endif

namespace pipebench {
namespace {

namespace fs = std::filesystem;
using namespace vmp;

// ------------------------------------------------------------ declarations

struct MetricDecl {
  std::string name;
  std::string unit;
  std::string better;
  double bound = 0.0;  ///< end-to-end only: allowed worsening share.
  std::string note;    ///< meaning, and for per-layer metrics what it moves.
};

struct WorkloadConfig {
  std::string name;
  std::string why;
  std::size_t shards = 1;
  std::size_t hosts = 1;              ///< per shard.
  std::vector<unsigned> vm_types;     ///< paper VM index per VM slot.
  std::size_t threads = 1;            ///< FleetEngine threads per shard.
  std::size_t tenants = 3;
  /// Share of the timed window spent ticking flat out. The tick phase is a
  /// fixed number of rounds (one tick of every shard), tick_rate_hz x seconds
  /// x tick_share, so every run covers the same ticks of the engine's life
  /// (the estimator's memo grows, rehashes and clears at fixed tick counts);
  /// tick_rate_hz is the workload's flat-out round rate on a 4-thread x86
  /// box, so the phase takes about its share of the window there.
  double tick_share = 0.0;
  double tick_rate_hz = 0.0;
  /// Ledger rotation size; small enough that the cold windows' history is
  /// compacted into indexed cold segments before timing starts.
  std::uint64_t segment_records = 256;
  /// Whether a ticker thread keeps every shard ticking at kCadenceHz while
  /// the clients query, so appends and ring evictions run beside the reads.
  bool ticker = false;
};

const std::vector<WorkloadConfig>& workloads() {
  static const std::vector<WorkloadConfig> list = {
      {"tick-mixed8",
       "16 hosts x 8 mixed VMs at 4 threads: the lookup-first VscTable path, "
       "where the Shapley kernel is most of each host step",
       1, 16, {1, 1, 1, 1, 2, 2, 3, 3}, 4, 3, 0.7, 370, 256},
      {"tick-small2",
       "64 hosts x 2 VMs at 4 threads: host steps are tiny, so pool handoff, "
       "aggregation, publish and ledger append dominate each tick",
       1, 64, {1, 2}, 4, 3, 0.5, 2300, 256},
      {"query-fed",
       "4 federated shards under 2 closed-loop TCP clients reading hot, cold "
       "(ledger) and cost windows while every shard keeps ticking",
       4, 8, {1, 2}, 1, 2, 0.2, 900, 128, true},
  };
  return list;
}

/// The timed end-to-end figures are process CPU time (every thread of the
/// process, see process_cpu_ns), not wall time, scaled to a fixed machine
/// speed by the Yardstick. On a shared machine the hypervisor runs other
/// tenants on this guest's vCPUs (steal); whole runs at 14-30% steal were
/// 1.3-3.5x slower in wall time on every figure, which no statistic taken
/// inside a run removes. CPU time leaves steal out, and the yardstick takes
/// out most of what other tenants' cache and core contention adds to it.
/// The wall-time figures are still reported, without a bound, as the
/// per-layer wall.* metrics of the traced run. Hot queries have no p90
/// here: on a shared machine it spread over 0.3-0.5 of its median between
/// runs, however scaled; the traced run reports their tails per layer.
const std::vector<MetricDecl>& end_to_end_metrics() {
  static const std::vector<MetricDecl> list = {
      {"setup_s", "s", "lower", 0.25,
       "CPU time of one set-up, median of 3: dataset collection, engine, "
       "ledger and server start, and the shards' history fill"},
      {"peak_rss_mb", "MB", "lower", 0.15, "peak resident memory of the run"},
      {"host_tick_cpu_us", "us", "lower", 0.25,
       "CPU time per host-tick over the tick phase's FleetEngine::run(1) "
       "calls, publish and ledger append included"},
      {"tick_cpu_p50_us", "us", "lower", 0.25,
       "CPU time of one FleetEngine::run(1) including its observer"},
      {"query_cpu_us", "us", "lower", 0.25,
       "CPU time per answered query of the mixed stream at 2 closed-loop "
       "connections (on query-fed, with the shards ticking)"},
      {"hot_query_cpu_p50_us", "us", "lower", 0.25,
       "CPU time of one point query or repeated in-ring window, sent alone "
       "through the federated server: client, servers, frontend and shards"},
      {"cold_query_cpu_p50_us", "us", "lower", 0.25,
       "the same for unique windows that start before the ring and fall "
       "through to the ledger"},
      {"cold_query_cpu_p90_us", "us", "lower", 0.25, "p90 of the same"},
  };
  return list;
}

/// The wall-time figures, reported by the traced run from its untraced
/// pass as wall.<name>.
const std::vector<MetricDecl>& wall_metrics() {
  static const std::vector<MetricDecl> list = {
      {"host_ticks_per_s", "1/s", "higher", 0,
       "hosts x ticks / wall time inside the tick phase's "
       "FleetEngine::run(1) calls, publish and ledger append included"},
      {"tick_p50_us", "us", "lower", 0,
       "wall time of one FleetEngine::run(1) including its observer"},
      {"tick_p90_us", "us", "lower", 0, "p90 of the same"},
      {"queries_per_s", "1/s", "higher", 0,
       "answered queries per second of the mixed stream at 2 closed-loop "
       "connections"},
      {"hot_query_p50_us", "us", "lower", 0,
       "client-observed latency of hot queries in the mixed stream"},
      {"hot_query_p90_us", "us", "lower", 0, "p90 of the same"},
      {"cold_query_p50_us", "us", "lower", 0,
       "client-observed latency of cold queries in the mixed stream"},
      {"cold_query_p90_us", "us", "lower", 0, "p90 of the same"},
  };
  return list;
}

/// The seven serve stages as ServeProfiler records them, in Stage order.
constexpr std::array<const char*, serve::kStageCount> kStageNames = {
    "admission", "queue", "execute", "cache", "coalesce", "encode", "write"};

const std::vector<MetricDecl>& per_layer_metrics() {
  static const std::vector<MetricDecl> list = [] {
    std::vector<MetricDecl> m = {
        {"fleet.tick_p50_us", "us", "lower", 0,
         "FleetEngine::run(1) minus its observer; moves tick_cpu_p50_us on "
         "tick-mixed8 and tick-small2"},
        {"fleet.tick_p99_us", "us", "lower", 0, "p99 of the same"},
        {"fleet.worker_busy_frac", "frac", "higher", 0,
         "sum of HostTickResult::step_seconds / (threads x fleet tick); moves "
         "wall.host_ticks_per_s on tick-small2 (near 1 on tick-mixed8)"},
        {"fleet.overhead_p50_us", "us", "lower", 0,
         "fleet tick - sum of steps / threads: handoff, queue, sort and "
         "aggregate; moves tick_cpu_p50_us on tick-small2"},
        {"fleet.scaling_vs_1t", "x", "higher", 0,
         "wall-time host-ticks per second at the workload's threads / the "
         "same job at 1 thread; moves wall.host_ticks_per_s on tick-small2"},
        {"sim.step_p50_us", "us", "lower", 0,
         "step_seconds - estimate_seconds per host-tick; moves "
         "host_tick_cpu_us on tick-small2"},
        {"core.estimate_p50_us", "us", "lower", 0,
         "HostTickResult::estimate_seconds; moves host_tick_cpu_us and "
         "tick_cpu_p50_us on tick-mixed8, no change on tick-small2"},
        {"core.estimate_p99_us", "us", "lower", 0, "p99 of the same"},
        {"core.estimate_share", "frac", "lower", 0,
         "sum of estimate_seconds / sum of step_seconds; moves "
         "host_tick_cpu_us on tick-mixed8"},
        {"core.kernel.collapsed_frac", "frac", "higher", 0,
         "share of host-ticks on the collapsed kernel tier; explains "
         "core.estimate_p50_us"},
        {"core.kernel.sweep_frac", "frac", "lower", 0,
         "share on the sweep tier; explains core.estimate_p50_us"},
        {"core.kernel.sampled_frac", "frac", "lower", 0,
         "share on the sampled tier; explains core.estimate_p50_us"},
        {"core.kernel.legacy_frac", "frac", "lower", 0,
         "share on the legacy tier; explains core.estimate_p50_us"},
        {"core.table_hit_rate", "frac", "higher", 0,
         "HostTickResult::table_hit_rate averaged over hosts at the last "
         "tick; moves tick_cpu_p50_us on tick-mixed8"},
        {"serve.publish_p50_us", "us", "lower", 0,
         "SnapshotStore::publish_tick with no ledger attached; moves "
         "tick_cpu_p50_us on tick-small2"},
        {"serve.publish_p99_us", "us", "lower", 0, "p99 of the same"},
        {"ledger.append_p50_us", "us", "lower", 0,
         "Ledger::append of to_record(store.latest()); moves host_tick_cpu_us "
         "on tick-small2 and cold_query_cpu_p90_us on query-fed"},
        {"ledger.append_p99_us", "us", "lower", 0, "p99 of the same"},
        {"ledger.bytes_per_record", "B", "lower", 0,
         "Ledger::stats appended bytes / appended records; moves "
         "host_tick_cpu_us on tick-small2"},
        {"ledger.compacted_records", "count", "higher", 0,
         "Ledger::stats compacted records summed over shards; moves "
         "cold_query_cpu_p90_us on query-fed"},
        {"ledger.read_p50_us", "us", "lower", 0,
         "Ledger::at_or_before on cold window starts; moves "
         "cold_query_cpu_p50_us and query_cpu_us on query-fed"},
        {"ledger.read_p99_us", "us", "lower", 0, "p99 of the same"},
        {"serve.ring_read_p50_us", "us", "lower", 0,
         "SnapshotStore::at_or_before on hot window bounds; moves "
         "hot_query_cpu_p50_us"},
        {"serve.engine.hot_p50_us", "us", "lower", 0,
         "QueryEngine::execute on a shard, uncached replay of hot queries; "
         "moves hot_query_cpu_p50_us"},
        {"serve.engine.hot_p99_us", "us", "lower", 0, "p99 of the same"},
        {"serve.engine.cold_p50_us", "us", "lower", 0,
         "the same for cold queries; moves cold_query_cpu_p50_us"},
        {"serve.engine.cold_p99_us", "us", "lower", 0, "p99 of the same"},
        {"serve.engine.cost_p50_us", "us", "lower", 0,
         "the same for cost windows; moves query_cpu_us"},
        {"serve.cache_hit_ratio", "frac", "higher", 0,
         "QueryEngine::cache_hits / (hits + misses) summed over shards; "
         "moves hot_query_cpu_p50_us"},
        {"serve.coalesced", "count", "higher", 0,
         "QueryEngine::coalesced summed over shards; moves hot_query_cpu_p50_us"},
        {"serve.inproc_p50_us", "us", "lower", 0,
         "InProcessTransport::roundtrip_binary minus QueryEngine::execute; "
         "moves hot_query_cpu_p50_us"},
        {"serve.tcp_p50_us", "us", "lower", 0,
         "serve::Client::query to one shard minus the in-process round "
         "trip; moves hot_query_cpu_p50_us"},
    };
    for (const char* where : {"stage", "shard_stage"}) {
      const std::string server =
          std::string(where) == "stage" ? "the federated server"
                                        : "the shard servers, merged";
      for (const char* stage : kStageNames) {
        const std::string base = std::string("serve.") + where + "." + stage;
        m.push_back({base + "_p50_us", "us", "lower", 0,
                     "ServeProfiler::stage_sketch on " + server +
                         "; queue moves wall.hot_query_p90_us (head-of-line "
                         "blocking behind cold reads)"});
        m.push_back({base + "_p99_us", "us", "lower", 0, "p99 of the same"});
      }
    }
    const std::vector<MetricDecl> tail = {
        {"federate.execute_p50_us", "us", "lower", 0,
         "FederationFrontend::execute in the uncached replay; moves "
         "hot_query_cpu_p50_us"},
        {"federate.execute_p99_us", "us", "lower", 0, "p99 of the same"},
        {"federate.fanout_overhead_p50_us", "us", "lower", 0,
         "FederationFrontend::execute minus the slowest shard's "
         "serve::Client::query; moves hot_query_cpu_p50_us"},
        {"federate.pool_hit_ratio", "frac", "higher", 0,
         "ConnectionPool hits / (hits + misses); moves hot_query_cpu_p50_us"},
        {"federate.retries", "count", "lower", 0,
         "shard attempts beyond the first; moves ops failed"},
        {"federate.partials", "count", "lower", 0,
         "answers with complete=false; moves ops failed"},
    };
    m.insert(m.end(), tail.begin(), tail.end());
    for (const MetricDecl& wall : wall_metrics())
      m.push_back({"wall." + wall.name, wall.unit, wall.better, 0,
                   wall.note + ", in the traced run's untraced pass"});
    for (const MetricDecl& e2e : end_to_end_metrics()) {
      if (e2e.name == "setup_s" || e2e.name == "peak_rss_mb") continue;
      m.push_back({"trace.overhead." + e2e.name, e2e.unit, e2e.better, 0,
                   "traced minus untraced " + e2e.name +
                       " in the same run"});
    }
    return m;
  }();
  return list;
}

// --------------------------------------------------------------- constants

constexpr int kSetupReps = 3;
/// Simulated training time per VHC combination: the default of `vmpower
/// serve` and `vmpower fleet`, so the VscTable is as full as a deployed one.
constexpr double kCollectSeconds = 120.0;
constexpr double kCadenceHz = 50.0;       ///< query-phase ticker rate.
constexpr std::uint64_t kHotSpan = 64;    ///< hot windows: newest ticks.
constexpr std::uint64_t kColdSpan = 256;  ///< ticks older than the ring.
constexpr std::uint64_t kColdLenMax = 256;
constexpr std::uint64_t kCostLenMax = 1024;
constexpr std::size_t kHotWindowPool = 16;
constexpr std::size_t kQueryCount = std::size_t{1} << 17;
constexpr std::size_t kClients = 2;
constexpr std::uint64_t kPrefixTicks = 16;
constexpr std::size_t kLadderPerClass = 100;
/// Queries sent one at a time after the mixed stream: the last kProbeQueries
/// of the planned sequence, which the mixed stream never reaches.
constexpr std::size_t kProbeQueries = 3000;
/// Window answers of the mixed stream each client keeps for the reference
/// check; a fixed cap keeps peak RSS from following the query rate.
constexpr std::size_t kCheckedWindows = 4096;
/// Yardstick measurements per phase (see Yardstick); the mixed stream's CPU
/// per query is also taken in this many equal slices of its duration.
constexpr std::size_t kBlocks = 8;
/// The yardstick's CPU time at the speed end-to-end figures are scaled to:
/// about its median on the 4-vCPU x86 machine the benchmark was tuned on.
constexpr double kYardstickUs = 10000.0;
constexpr double kResidualLimitW = 1e-6;

double query_seconds(const WorkloadConfig& config, double seconds) {
  return seconds * (1.0 - config.tick_share);
}

/// Ring retention: the hot windows must stay in the ring while the query
/// phase keeps ticking, so it covers the hot span, every cadence tick the
/// query phase can make, and a margin.
std::uint64_t retention_for(const WorkloadConfig& config, double seconds) {
  const double ticks =
      config.ticker ? kCadenceHz * query_seconds(config, seconds) : 0.0;
  return kHotSpan + static_cast<std::uint64_t>(std::ceil(ticks)) + 64;
}

/// Ticks of history the set-up fills in: the ring plus the cold span.
std::uint64_t history_for(const WorkloadConfig& config, double seconds) {
  return retention_for(config, seconds) + kColdSpan + 2;
}

// ------------------------------------------------------------------ helpers

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double sum_of(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double p50_of(const std::vector<double>& values) { return percentile(values, 0.50); }
double p90_of(const std::vector<double>& values) { return percentile(values, 0.90); }

std::uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time consumed so far by every thread of the process. The kernel
/// leaves steal (time the hypervisor gives other tenants) out of it.
std::uint64_t process_cpu_ns() { return cpu_ns(CLOCK_PROCESS_CPUTIME_ID); }

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The benchmark's own yardstick, which no change to the program can move.
/// One measurement is a fixed dependent walk over 4 MiB with a little
/// arithmetic per step, then fixed round trips of a small message over a
/// loopback TCP connection to an echo thread: the memory traffic of a tick
/// and the thread hand-offs of a served query. Its cost is the CPU time of
/// both threads.
///
/// On a shared machine, other tenants' contention for caches, memory and
/// cores changes how much CPU time the same work takes, by up to 40% between
/// runs minutes apart, and the yardstick's CPU time moves with it. Each
/// end-to-end CPU figure is therefore scaled by kYardstickUs / the median of
/// the yardstick measurements taken around it (in the set-ups, or in the
/// tick phase and probe of its pass): it reads as the CPU time the work
/// would take at the speed where the yardstick takes kYardstickUs. This
/// halved the spread between runs on a machine with varying contention.
class Yardstick {
 public:
  Yardstick() : next_(kSlots) {
    std::vector<std::uint32_t> order(kSlots);
    std::iota(order.begin(), order.end(), 0u);
    std::uint64_t state = 42;
    for (std::size_t i = kSlots - 1; i > 0; --i)
      std::swap(order[i], order[splitmix64(state) % (i + 1)]);
    for (std::size_t i = 0; i < kSlots; ++i) next_[order[i]] = order[(i + 1) % kSlots];

    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (listener < 0 || ::bind(listener, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listener, 1) != 0 ||
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      throw std::runtime_error("yardstick: cannot listen on loopback");
    client_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (client_ < 0 || ::connect(client_, reinterpret_cast<sockaddr*>(&addr), len) != 0)
      throw std::runtime_error("yardstick: cannot connect on loopback");
    server_ = ::accept(listener, nullptr, nullptr);
    ::close(listener);
    if (server_ < 0) throw std::runtime_error("yardstick: cannot accept");
    const int one = 1;
    for (const int fd : {client_, server_})
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    echo_ = std::thread([fd = server_] {
      char buffer[kMessage];
      for (;;) {
        const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
        if (n <= 0 || ::send(fd, buffer, static_cast<std::size_t>(n), 0) != n) return;
      }
    });
    pthread_getcpuclockid(echo_.native_handle(), &echo_clock_);
  }
  ~Yardstick() {
    ::shutdown(client_, SHUT_RDWR);
    echo_.join();
    ::close(client_);
    ::close(server_);
  }
  Yardstick(const Yardstick&) = delete;
  Yardstick& operator=(const Yardstick&) = delete;

  /// CPU time (µs) of one measurement.
  double measure_us() {
    const std::uint64_t start = cpu_ns(CLOCK_THREAD_CPUTIME_ID) + cpu_ns(echo_clock_);
    std::uint32_t at = 0;
    std::uint64_t mix = 0;
    for (int step = 0; step < (1 << 15); ++step) {
      at = next_[at];
      mix = (mix ^ at) * 0x9E3779B97F4A7C15ull;
    }
    char message[kMessage] = {};
    std::memcpy(message, &mix, sizeof mix);
    for (int trip = 0; trip < 256; ++trip) {
      if (::send(client_, message, sizeof message, 0) != static_cast<ssize_t>(sizeof message))
        throw std::runtime_error("yardstick: send failed");
      for (std::size_t got = 0; got < sizeof message;) {
        const ssize_t n = ::recv(client_, message + got, sizeof message - got, 0);
        if (n <= 0) throw std::runtime_error("yardstick: recv failed");
        got += static_cast<std::size_t>(n);
      }
    }
    return static_cast<double>(cpu_ns(CLOCK_THREAD_CPUTIME_ID) + cpu_ns(echo_clock_) -
                               start) / 1e3;
  }

 private:
  static constexpr std::size_t kSlots = std::size_t{1} << 20;
  static constexpr std::size_t kMessage = 64;
  std::vector<std::uint32_t> next_;
  int client_ = -1;
  int server_ = -1;
  std::thread echo_;
  clockid_t echo_clock_{};
};

/// One yardstick measurement, from the calling thread.
double yardstick_us() {
  static Yardstick yardstick;
  return yardstick.measure_us();
}

/// Scales CPU time measured beside `yardstick` samples to kYardstickUs.
double scale_to_yardstick(double cpu_us, const std::vector<double>& yardstick) {
  return cpu_us * kYardstickUs / p50_of(yardstick);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Counts what the run attempted and what failed, and says why out loud.
class Checks {
 public:
  void ok(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& what, std::uint64_t n = 1) {
    attempted_ += n;
    failed_ += n;
    if (reported_++ < 20)
      std::fprintf(stderr, "pipebench: FAILED: %s\n", what.c_str());
  }
  void expect(bool condition, const std::string& what) {
    condition ? ok() : fail(what);
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t reported_ = 0;
};

// ------------------------------------------------------------ the query mix

enum class QueryClass : std::uint8_t { kHot = 0, kCold = 1, kCost = 2 };
constexpr std::size_t kClassCount = 3;

struct PlannedQuery {
  serve::Request request;
  QueryClass cls = QueryClass::kHot;
};

/// What the generator may address: the fleet's entities and the history
/// extent when the query phase starts.
struct QueryUniverse {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> vms;  ///< (host, vm)
  std::vector<std::uint32_t> tenants;
  std::uint64_t end_tick = 0;  ///< newest published tick (time = tick s).
  std::uint64_t retention = 0;
};

bool is_window(serve::QueryKind kind) {
  return kind == serve::QueryKind::kTenantEnergy ||
         kind == serve::QueryKind::kTenantCost;
}

/// The seeded query sequence: 35% point queries and 35% repeated in-ring
/// tenant-energy windows (hot), 25% unique tenant-energy windows that start
/// before the ring (cold), 5% tenant-cost windows anywhere in history.
/// Window bounds sit mid-period (tick + 0.5) so every bound resolves to one
/// snapshot without a tie.
std::vector<PlannedQuery> generate_queries(std::uint64_t seed,
                                           const QueryUniverse& u,
                                           std::size_t count) {
  if (u.vms.empty() || u.tenants.empty() ||
      u.end_tick < u.retention + kColdSpan + 2 || u.retention <= kHotSpan)
    throw std::invalid_argument("generate_queries: history too short");
  std::uint64_t state = seed * 0x2545F4914F6CDD1Dull + 1;
  const auto pick = [&state](std::uint64_t n) { return splitmix64(state) % n; };
  const auto tenant = [&] {
    return u.tenants[static_cast<std::size_t>(pick(u.tenants.size()))];
  };

  struct Window { std::uint32_t tenant; double t0, t1; };
  std::vector<Window> hot_pool;
  for (std::size_t k = 0; k < kHotWindowPool; ++k) {
    const std::uint64_t hi = u.end_tick - pick(kHotSpan / 2);
    const std::uint64_t len = 1 + pick(kHotSpan / 2 - 1);
    hot_pool.push_back({tenant(), static_cast<double>(hi - len) + 0.5,
                        static_cast<double>(hi) + 0.5});
  }

  // Cold windows walk a permutation of (start, length) so none repeats
  // before the space is exhausted. Starts lie in the first kColdSpan + 1
  // ticks of the set-up history: always before the ring's oldest snapshot,
  // and always in compacted ledger segments, however long the run.
  const std::uint64_t cold_starts = kColdSpan + 1;
  const std::uint64_t cold_space = cold_starts * kColdLenMax;
  std::uint64_t stride = (pick(cold_space) | 1);
  while (std::gcd(stride, cold_space) != 1) stride += 2;
  const std::uint64_t offset = pick(cold_space);
  std::uint64_t cold_index = 0;

  std::vector<PlannedQuery> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    PlannedQuery q;
    const std::uint64_t r = pick(100);
    if (r < 35) {
      q.cls = QueryClass::kHot;
      switch (pick(3)) {
        case 0: {
          const auto& vm = u.vms[static_cast<std::size_t>(pick(u.vms.size()))];
          q.request.kind = serve::QueryKind::kVmPower;
          q.request.host = vm.first;
          q.request.vm = vm.second;
          break;
        }
        case 1:
          q.request.kind = serve::QueryKind::kTenantPower;
          q.request.tenant = tenant();
          break;
        default:
          q.request.kind = serve::QueryKind::kFleetPower;
          break;
      }
    } else if (r < 70) {
      const Window& w = hot_pool[static_cast<std::size_t>(pick(hot_pool.size()))];
      q.cls = QueryClass::kHot;
      q.request.kind = serve::QueryKind::kTenantEnergy;
      q.request.tenant = w.tenant;
      q.request.t0 = w.t0;
      q.request.t1 = w.t1;
    } else if (r < 95) {
      const std::uint64_t idx =
          (offset + stride * (cold_index++ % cold_space)) % cold_space;
      const std::uint64_t start = 1 + idx / kColdLenMax;
      const std::uint64_t end =
          std::min(start + 1 + idx % kColdLenMax, u.end_tick);
      q.cls = QueryClass::kCold;
      q.request.kind = serve::QueryKind::kTenantEnergy;
      q.request.tenant = tenant();
      q.request.t0 = static_cast<double>(start) + 0.5;
      q.request.t1 = static_cast<double>(end) + 0.5;
    } else {
      const std::uint64_t start = 1 + pick(u.end_tick - 1);
      const std::uint64_t end =
          std::min(start + 1 + pick(kCostLenMax), u.end_tick);
      q.cls = QueryClass::kCost;
      q.request.kind = serve::QueryKind::kTenantCost;
      q.request.tenant = tenant();
      q.request.t0 = static_cast<double>(start) + 0.5;
      q.request.t1 = static_cast<double>(end) + 0.5;
    }
    out.push_back(q);
  }
  return out;
}

// ---------------------------------------------------------------- the stack

fleet::FleetOptions fleet_options(const WorkloadConfig& config,
                                  std::uint64_t seed) {
  fleet::FleetOptions options;
  options.hosts = config.hosts;
  options.threads = config.threads;
  options.tenants = config.tenants;
  for (const unsigned type : config.vm_types)
    options.fleet_per_host.push_back(common::paper_vm_type(type));
  options.seed = seed;
  options.validate();
  return options;
}

serve::ServerOptions server_options(serve::ServeProfiler* profiler) {
  serve::ServerOptions options;
  options.workers = 2;
  // Admission is not under test: closed-loop clients must never be shed.
  options.tokens_per_s = 1e12;
  options.token_burst = 1e12;
  options.profiler = profiler;
  options.validate();
  return options;
}

ledger::LedgerOptions ledger_options(const fs::path& dir,
                                     std::uint64_t segment_records) {
  ledger::LedgerOptions options;
  options.dir = dir;
  options.segment_max_records = segment_records;
  return options;
}

core::OfflineDataset collect_dataset(const WorkloadConfig& config,
                                     std::uint64_t seed) {
  core::CollectionOptions collect;
  collect.duration_s = kCollectSeconds;
  collect.seed = seed;
  return core::collect_offline_dataset(sim::xeon_prototype(),
                                       fleet_options(config, seed).fleet_per_host,
                                       collect);
}

/// Everything one run keeps alive. Members are declared so destruction runs
/// front end first and ledgers last: the federated server before the
/// frontend it calls, engines before the shard stores their observers
/// publish into, shard servers before their profilers, and stores before
/// the ledgers they append to.
struct Stack {
  WorkloadConfig config;
  std::uint64_t retention = 0;
  std::unique_ptr<core::OfflineDataset> dataset;
  std::vector<std::unique_ptr<ledger::Ledger>> ledgers;
  std::vector<std::unique_ptr<serve::ServeProfiler>> shard_profilers;
  std::vector<std::unique_ptr<federate::InProcessShard>> shards;
  std::vector<std::unique_ptr<fleet::FleetEngine>> engines;
  fleet::Metrics fed_metrics;
  std::unique_ptr<federate::FederationFrontend> frontend;
  serve::ServeProfiler fed_profiler;
  std::unique_ptr<serve::Server> fed_server;
};

void tick_checked(fleet::FleetEngine& engine, Checks& checks) {
  engine.run(1);
  const double residual = engine.efficiency_residual_w();
  if (!(residual < kResidualLimitW))
    checks.fail("efficiency residual " + std::to_string(residual) +
                " W at tick " + std::to_string(engine.tick()));
}

std::unique_ptr<Stack> build_stack(const WorkloadConfig& config,
                                   std::uint64_t seed, double seconds,
                                   const fs::path& dir, Checks& checks) {
  auto stack = std::make_unique<Stack>();
  stack->config = config;
  stack->retention = retention_for(config, seconds);
  stack->dataset = std::make_unique<core::OfflineDataset>(
      collect_dataset(config, seed));
  std::vector<federate::FleetShard> map;
  for (std::size_t i = 0; i < config.shards; ++i) {
    stack->ledgers.push_back(std::make_unique<ledger::Ledger>(ledger_options(
        dir / ("shard" + std::to_string(i)), config.segment_records)));
    stack->shard_profilers.push_back(std::make_unique<serve::ServeProfiler>());
    federate::InProcessShardOptions shard_options;
    shard_options.fleet = static_cast<std::uint32_t>(i + 1);
    shard_options.retention = static_cast<std::size_t>(stack->retention);
    shard_options.server = server_options(stack->shard_profilers.back().get());
    stack->shards.push_back(
        std::make_unique<federate::InProcessShard>(shard_options));
    stack->engines.push_back(std::make_unique<fleet::FleetEngine>(
        fleet_options(config, seed + i), *stack->dataset));
    serve::SnapshotStore& store = stack->shards.back()->store();
    store.attach(*stack->engines.back());
    store.set_ledger(stack->ledgers.back().get());
    map.push_back({shard_options.fleet, {stack->shards.back()->port()}});
  }
  const std::uint64_t history = history_for(config, seconds);
  for (std::uint64_t k = 0; k < history; ++k)
    for (auto& engine : stack->engines) tick_checked(*engine, checks);
  for (const auto& log : stack->ledgers) log->wait_for_compaction();

  federate::FrontendOptions frontend_options;
  frontend_options.deadline = std::chrono::milliseconds(2000);
  frontend_options.metrics = &stack->fed_metrics;
  stack->frontend = std::make_unique<federate::FederationFrontend>(
      federate::ShardMap(std::move(map)), frontend_options);
  stack->fed_server = std::make_unique<serve::Server>(
      *stack->frontend, stack->fed_metrics,
      server_options(&stack->fed_profiler));
  return stack;
}

QueryUniverse universe_of(const Stack& stack) {
  QueryUniverse u;
  const auto head = stack.shards.front()->store().latest();
  for (const serve::VmRecord& vm : head->vms) u.vms.emplace_back(vm.host, vm.vm);
  for (const serve::TenantRecord& t : head->tenants) u.tenants.push_back(t.tenant);
  u.end_tick = head->tick;
  u.retention = stack.retention;
  return u;
}

// --------------------------------------------------------- traced observer

std::uint64_t tick_span_id(std::size_t engine, std::uint64_t tick) {
  return (static_cast<std::uint64_t>(engine) << 48) | tick;
}

/// Per-host-tick figures the program measures itself (HostTickResult), kept
/// at the same boundary as the benchmark's spans.
struct HostStats {
  std::vector<double> step_us;
  std::vector<double> estimate_us;
  std::unordered_map<std::uint64_t, double> tick_step_sum_us;  ///< by span id.
  std::map<std::string, std::uint64_t> kernels;
  std::vector<double> last_table_hit_rate;
};

/// Where the traced observer records; switched between phases, read only by
/// the thread that is ticking.
struct ObserverSink {
  SpanBuffer* spans = nullptr;
  HostStats* stats = nullptr;
};

/// A store and ledger beside a shard's own, fed the same ticks, so the
/// traced run can time SnapshotStore::publish_tick with no ledger attached
/// and Ledger::append on its own while the shard's production path (store
/// with ledger, which cold queries read through) stays untouched.
struct Shadow {
  serve::SnapshotStore store;
  ledger::Ledger log;
  Shadow(std::uint64_t retention, const fs::path& dir,
         std::uint64_t segment_records)
      : store(static_cast<std::size_t>(retention)),
        log(ledger_options(dir, segment_records)) {}
};

/// Replaces store.attach()'s observer with one that runs the same publish,
/// then the shadow publish and append, each under its own span. Both passes
/// of a traced run install it; the untraced pass gives it no span buffer, so
/// the two passes differ only by the spans.
void install_traced_observer(Stack& stack, std::size_t i, Shadow& shadow,
                             ObserverSink& sink) {
  serve::SnapshotStore& store = stack.shards[i]->store();
  stack.engines[i]->set_tick_observer(
      [&store, &shadow, &sink, i](const fleet::FleetEngine& engine,
                                  std::uint64_t tick,
                                  const std::vector<fleet::HostTickResult>& results) {
        const std::uint64_t id = tick_span_id(i, tick);
        ScopedSpan observer(sink.spans, "fleet.observer", id);
        store.publish_tick(engine, tick, results);
        {
          ScopedSpan span(sink.spans, "serve.publish_tick", id);
          shadow.store.publish_tick(engine, tick, results);
        }
        {
          ScopedSpan span(sink.spans, "ledger.append", id);
          shadow.log.append(serve::to_record(*shadow.store.latest()));
        }
        HostStats& stats = *sink.stats;
        double step_sum = 0.0;
        stats.last_table_hit_rate.clear();
        for (const fleet::HostTickResult& r : results) {
          stats.step_us.push_back(r.step_seconds * 1e6);
          stats.estimate_us.push_back(r.estimate_seconds * 1e6);
          step_sum += r.step_seconds * 1e6;
          ++stats.kernels[std::string(r.kernel)];
          stats.last_table_hit_rate.push_back(r.table_hit_rate);
        }
        stats.tick_step_sum_us[id] = step_sum;
      });
}

/// The traced observer on every shard, each with its own shadow under
/// `dir`. The shadows must outlive the observers: restore_observers() first.
std::vector<std::unique_ptr<Shadow>> install_shadows(Stack& stack,
                                                     const fs::path& dir,
                                                     ObserverSink& sink) {
  std::vector<std::unique_ptr<Shadow>> shadows;
  for (std::size_t i = 0; i < stack.engines.size(); ++i) {
    shadows.push_back(std::make_unique<Shadow>(
        stack.retention, dir / ("shadow" + std::to_string(i)),
        stack.config.segment_records));
    install_traced_observer(stack, i, *shadows.back(), sink);
  }
  return shadows;
}

/// Puts store.attach()'s own observer back on every shard.
void restore_observers(Stack& stack) {
  for (std::size_t i = 0; i < stack.engines.size(); ++i)
    stack.shards[i]->store().attach(*stack.engines[i]);
}

// ------------------------------------------------------------------ phases

/// Wall and CPU time of each FleetEngine::run(1) of the tick phase.
struct TickPhase {
  std::vector<double> wall_us;
  std::vector<double> cpu_us;
  std::vector<double> yardstick_us;  ///< at the start and after each block.
};

/// `rounds` back-to-back ticks of every shard's engine, round-robin, with
/// nothing else running.
TickPhase tick_phase(Stack& stack, std::uint64_t rounds, SpanBuffer* spans,
                     Checks& checks) {
  TickPhase out;
  out.yardstick_us.push_back(yardstick_us());
  for (std::uint64_t k = 0; k < rounds; ++k) {
    if (k > 0 && k % std::max<std::uint64_t>(1, rounds / kBlocks) == 0)
      out.yardstick_us.push_back(yardstick_us());
    for (std::size_t i = 0; i < stack.engines.size(); ++i) {
      fleet::FleetEngine& engine = *stack.engines[i];
      const std::uint64_t t0 = now_ns();
      const std::uint64_t c0 = process_cpu_ns();
      {
        ScopedSpan span(spans, "fleet.run", tick_span_id(i, engine.tick()));
        tick_checked(engine, checks);
      }
      out.cpu_us.push_back(static_cast<double>(process_cpu_ns() - c0) / 1e3);
      out.wall_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  return out;
}

/// One answered window query, kept for the reference check.
struct WindowAnswer {
  serve::Request request;
  std::vector<double> values;
};

/// The mixed stream's samples.
struct QueryPhase {
  std::array<std::vector<double>, kClassCount> latency_us;  ///< wall.
  std::uint64_t answered = 0;
  std::uint64_t ticks = 0;  ///< engine ticks the ticker made.
  double seconds = 0.0;     ///< wall time of the stream.
  /// Process CPU time per answered query in each of kBlocks equal slices of
  /// the stream's duration.
  std::vector<double> cpu_per_query_us;
  std::vector<WindowAnswer> windows;
};

const char* query_span_name(QueryClass cls) {
  switch (cls) {
    case QueryClass::kHot: return "client.query.hot";
    case QueryClass::kCold: return "client.query.cold";
    case QueryClass::kCost: return "client.query.cost";
  }
  return "client.query";
}

/// The mixed stream: closed-loop clients against the federated server,
/// drawing the planned queries in order (all but the last kProbeQueries),
/// while (on workloads with a ticker) a ticker thread ticks every shard at
/// kCadenceHz.
QueryPhase query_phase(Stack& stack, const std::vector<PlannedQuery>& queries,
                       double seconds, bool traced, SpanLog& log,
                       Checks& checks) {
  QueryPhase out;
  const std::size_t stream = queries.size() - kProbeQueries;
  const std::uint64_t start = now_ns();
  const auto duration_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t deadline = start + duration_ns;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> done{0};
  std::mutex merge_mutex;
  std::vector<std::string> errors;

  SpanBuffer ticker_spans;
  std::string ticker_error;  // written by the ticker, read after its join.
  std::thread ticker([&] {
    if (!stack.config.ticker) return;
    try {
      const auto period = std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(1.0 / kCadenceHz));
      auto due = std::chrono::steady_clock::now();
      while (!stop.load()) {
        for (std::size_t i = 0; i < stack.engines.size(); ++i) {
          fleet::FleetEngine& engine = *stack.engines[i];
          ScopedSpan span(traced ? &ticker_spans : nullptr, "fleet.run.bg",
                          tick_span_id(i, engine.tick()), 1);
          tick_checked(engine, checks);
          ++out.ticks;
        }
        due += period;
        const auto now = std::chrono::steady_clock::now();
        if (due < now) due = now;
        std::this_thread::sleep_until(due);
      }
    } catch (const std::exception& e) {
      ticker_error = std::string("ticker: ") + e.what();
    }
  });

  std::vector<std::thread> clients;
  std::array<std::uint64_t, kClients> bad{};
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::array<std::vector<double>, kClassCount> latency;
      std::uint64_t answered = 0;
      std::vector<WindowAnswer> windows;
      SpanBuffer spans;
      try {
        serve::Client client(stack.fed_server->port());
        while (now_ns() < deadline) {
          const std::size_t index = next.fetch_add(1);
          const PlannedQuery& q = queries[index % stream];
          const std::uint64_t t0 = now_ns();
          serve::Response response;
          {
            ScopedSpan span(traced ? &spans : nullptr, query_span_name(q.cls),
                            index, static_cast<std::uint32_t>(2 + c));
            response = client.query(q.request);
          }
          latency[static_cast<std::size_t>(q.cls)].push_back(
              static_cast<double>(now_ns() - t0) / 1e3);
          ++answered;
          done.fetch_add(1, std::memory_order_relaxed);
          if (!response.ok || !response.complete) {
            ++bad[c];
            std::lock_guard lock(merge_mutex);
            if (errors.size() < 10)
              errors.push_back(serve::format_response_text(response) +
                               " for " + q.request.canonical());
          } else if (is_window(q.request.kind) &&
                     windows.size() < kCheckedWindows) {
            windows.push_back({q.request, response.values});
          }
        }
      } catch (const std::exception& e) {
        ++bad[c];
        std::lock_guard lock(merge_mutex);
        errors.push_back(std::string("client: ") + e.what());
      }
      std::lock_guard lock(merge_mutex);
      for (std::size_t k = 0; k < kClassCount; ++k)
        out.latency_us[k].insert(out.latency_us[k].end(), latency[k].begin(),
                                 latency[k].end());
      out.answered += answered;
      out.windows.insert(out.windows.end(), windows.begin(), windows.end());
      log.merge(spans);
    });
  }
  // This thread only samples the process's CPU time and the answer count
  // at each slice boundary, sleeping in between.
  std::uint64_t cpu_mark = process_cpu_ns(), done_mark = 0;
  for (std::size_t b = 1; b <= kBlocks; ++b) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            start + b * duration_ns / kBlocks)));
    const std::uint64_t cpu = process_cpu_ns(), answered = done.load();
    if (answered > done_mark)
      out.cpu_per_query_us.push_back(static_cast<double>(cpu - cpu_mark) / 1e3 /
                                     static_cast<double>(answered - done_mark));
    cpu_mark = cpu;
    done_mark = answered;
  }
  for (std::thread& client : clients) client.join();
  stop.store(true);
  ticker.join();
  out.seconds = static_cast<double>(now_ns() - start) / 1e9;
  log.merge(ticker_spans);
  if (!ticker_error.empty()) checks.fail(ticker_error);

  std::uint64_t failures = 0;
  for (const std::uint64_t n : bad) failures += n;
  for (const std::string& e : errors) std::fprintf(stderr, "pipebench: %s\n", e.c_str());
  if (failures > 0) checks.fail("query phase: error or partial answers", failures);
  checks.ok(out.answered - std::min(out.answered, failures));
  return out;
}

/// CPU time of each probe query, by class.
struct ProbePhase {
  std::array<std::vector<double>, kClassCount> cpu_us;
  std::vector<double> yardstick_us;  ///< at the start and after each block.
  std::vector<WindowAnswer> windows;
};

/// The last kProbeQueries planned queries, sent one at a time through the
/// federated server while the fleet is quiescent. With one query in flight,
/// the process's CPU time over a round trip is that query's cost in every
/// thread it passes through: client, servers, frontend and shards.
ProbePhase probe_phase(Stack& stack, const std::vector<PlannedQuery>& queries,
                       bool traced, SpanLog& log, Checks& checks) {
  ProbePhase out;
  SpanBuffer spans;
  serve::Client client(stack.fed_server->port());
  std::uint64_t failures = 0;
  for (std::size_t k = 0; k < kProbeQueries; ++k) {
    if (k % (kProbeQueries / kBlocks) == 0) out.yardstick_us.push_back(yardstick_us());
    const std::size_t index = queries.size() - kProbeQueries + k;
    const PlannedQuery& q = queries[index];
    const std::uint64_t c0 = process_cpu_ns();
    serve::Response response;
    {
      ScopedSpan span(traced ? &spans : nullptr, "client.probe", index, 2);
      response = client.query(q.request);
    }
    out.cpu_us[static_cast<std::size_t>(q.cls)].push_back(
        static_cast<double>(process_cpu_ns() - c0) / 1e3);
    if (!response.ok || !response.complete) {
      if (failures++ < 10)
        std::fprintf(stderr, "pipebench: %s for %s\n",
                     serve::format_response_text(response).c_str(),
                     q.request.canonical().c_str());
    } else if (is_window(q.request.kind)) {
      out.windows.push_back({q.request, response.values});
    }
  }
  log.merge(spans);
  if (failures > 0) checks.fail("probe: error or partial answers", failures);
  checks.ok(kProbeQueries - failures);
  return out;
}

// ------------------------------------------------------------ e2e summary

using Values = std::map<std::string, double>;

/// The end-to-end figures of one pass, and its wall-time figures as wall.*.
/// The CPU figures are scaled by the yardstick measurements of the pass's
/// quiet phases, the tick phase and the probe: in the mixed stream the
/// yardstick would compete with the benchmark's own clients.
Values summarize(const TickPhase& ticks, std::size_t hosts,
                 const QueryPhase& mixed, const ProbePhase& probe) {
  Values v;
  std::vector<double> yardstick = ticks.yardstick_us;
  yardstick.insert(yardstick.end(), probe.yardstick_us.begin(),
                   probe.yardstick_us.end());
  const auto scaled = [&yardstick](double cpu_us) {
    return scale_to_yardstick(cpu_us, yardstick);
  };
  const std::vector<double>& hot = probe.cpu_us[static_cast<std::size_t>(QueryClass::kHot)];
  const std::vector<double>& cold = probe.cpu_us[static_cast<std::size_t>(QueryClass::kCold)];
  v["host_tick_cpu_us"] = scaled(sum_of(ticks.cpu_us) /
                                 static_cast<double>(hosts * ticks.cpu_us.size()));
  v["tick_cpu_p50_us"] = scaled(p50_of(ticks.cpu_us));
  v["query_cpu_us"] = scaled(p50_of(mixed.cpu_per_query_us));
  v["hot_query_cpu_p50_us"] = scaled(p50_of(hot));
  v["cold_query_cpu_p50_us"] = scaled(p50_of(cold));
  v["cold_query_cpu_p90_us"] = scaled(p90_of(cold));

  v["wall.host_ticks_per_s"] = static_cast<double>(hosts * ticks.wall_us.size()) /
                               (sum_of(ticks.wall_us) / 1e6);
  v["wall.tick_p50_us"] = p50_of(ticks.wall_us);
  v["wall.tick_p90_us"] = p90_of(ticks.wall_us);
  v["wall.queries_per_s"] = static_cast<double>(mixed.answered) / mixed.seconds;
  for (const QueryClass cls : {QueryClass::kHot, QueryClass::kCold}) {
    const std::string name = cls == QueryClass::kHot ? "hot" : "cold";
    const auto& latency = mixed.latency_us[static_cast<std::size_t>(cls)];
    v["wall." + name + "_query_p50_us"] = p50_of(latency);
    v["wall." + name + "_query_p90_us"] = p90_of(latency);
  }
  return v;
}

/// What a traced pass records into: the span log, plus the observer sink
/// and the HostTickResult figures of each phase.
struct Tracing {
  SpanLog& log;
  ObserverSink& sink;
  HostStats tick_stats;
  HostStats cadence_stats;
};

/// One pass: the tick phase, the mixed stream, then the probe.
struct Pass {
  std::vector<PlannedQuery> queries;
  std::vector<WindowAnswer> windows;  ///< answered windows of both streams.
  Values values;
};

Pass run_pass(Stack& stack, std::uint64_t query_seed, double seconds,
              Tracing* tracing, Checks& checks) {
  Pass pass;
  const WorkloadConfig& config = stack.config;
  SpanLog untraced_log;
  SpanLog& log = tracing ? tracing->log : untraced_log;
  if (tracing) tracing->sink.stats = &tracing->tick_stats;
  const auto rounds = static_cast<std::uint64_t>(
      std::llround(config.tick_rate_hz * seconds * config.tick_share));
  SpanBuffer spans;
  const TickPhase ticks =
      tick_phase(stack, rounds, tracing ? &spans : nullptr, checks);
  log.merge(spans);
  // The ticker thread starts after this store, so the switch is seen.
  if (tracing) tracing->sink.stats = &tracing->cadence_stats;

  pass.queries = generate_queries(query_seed, universe_of(stack), kQueryCount);
  const QueryPhase mixed = query_phase(
      stack, pass.queries, query_seconds(config, seconds), tracing != nullptr,
      log, checks);
  const ProbePhase probe =
      probe_phase(stack, pass.queries, tracing != nullptr, log, checks);
  checks.ok(config.hosts * (ticks.cpu_us.size() + mixed.ticks));
  if (tracing) log.merge(*tracing->sink.spans);
  pass.windows = mixed.windows;
  pass.windows.insert(pass.windows.end(), probe.windows.begin(),
                      probe.windows.end());
  pass.values = summarize(ticks, config.hosts, mixed, probe);
  return pass;
}

// ------------------------------------------------------ correctness checks

/// Tenant energy per tick, read once from a shard's ledger: the reference
/// the served window answers are held to.
struct EnergyHistory {
  std::vector<double> time_s;
  std::vector<std::uint32_t> tenant_ids;
  std::vector<double> energy;  ///< row per record, column per tenant.

  [[nodiscard]] double at_or_before(double t, std::uint32_t tenant) const {
    const auto it = std::upper_bound(time_s.begin(), time_s.end(), t);
    if (it == time_s.begin()) return 0.0;  // before accounting: zero baseline.
    const auto row = static_cast<std::size_t>(it - time_s.begin() - 1);
    for (std::size_t c = 0; c < tenant_ids.size(); ++c)
      if (tenant_ids[c] == tenant) return energy[row * tenant_ids.size() + c];
    return 0.0;
  }
};

EnergyHistory read_history(const ledger::Ledger& log,
                           const std::vector<std::uint32_t>& tenants) {
  EnergyHistory h;
  h.tenant_ids = tenants;
  const ledger::Stats stats = log.stats();
  for (std::uint64_t first = stats.oldest_epoch; first <= stats.tail_epoch;
       first += 1024) {
    for (const ledger::TickRecord& record : log.range(first, first + 1023)) {
      h.time_s.push_back(record.time_s);
      for (const std::uint32_t tenant : tenants) {
        double e = 0.0;
        for (const ledger::TenantEntry& entry : record.tenants)
          if (entry.tenant == tenant) e = entry.energy_j;
        h.energy.push_back(e);
      }
    }
  }
  return h;
}

/// The reference answer, computed in process from the shards' ledgers and
/// rolled up by Additivity in shard order, exactly as the frontend sums.
std::vector<double> reference_answer(const std::vector<EnergyHistory>& shards,
                                     const serve::Request& request) {
  const core::TouRateSchedule tou{};
  double energy = 0.0, cost = 0.0;
  for (const EnergyHistory& h : shards) {
    const double e0 = h.at_or_before(request.t0, request.tenant);
    const double e1 = h.at_or_before(request.t1, request.tenant);
    energy += e1 - e0;
    if (request.kind == serve::QueryKind::kTenantCost) {
      double shard_cost = 0.0, previous = e0;
      for (const core::TouSegment& segment :
           core::tou_segments(tou, request.t0, request.t1)) {
        const double at = segment.t1 < request.t1
                              ? h.at_or_before(segment.t1, request.tenant)
                              : e1;
        shard_cost += common::joules_to_kwh(at - previous) * segment.usd_per_kwh;
        previous = at;
      }
      cost += shard_cost;
    }
  }
  if (request.kind == serve::QueryKind::kTenantCost) return {cost, energy};
  return {energy};
}

bool close_to(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

void check_windows(const Stack& stack, const std::vector<WindowAnswer>& answers,
                   Checks& checks) {
  std::vector<std::uint32_t> tenants;
  for (std::uint32_t t = 1; t <= stack.config.tenants; ++t) tenants.push_back(t);
  std::vector<EnergyHistory> histories;
  for (const auto& log : stack.ledgers)
    histories.push_back(read_history(*log, tenants));
  std::uint64_t mismatches = 0;
  for (const WindowAnswer& a : answers) {
    const std::vector<double> want = reference_answer(histories, a.request);
    bool same = a.values.size() == want.size();
    for (std::size_t k = 0; same && k < want.size(); ++k)
      same = close_to(a.values[k], want[k]);
    if (!same && mismatches++ < 5)
      std::fprintf(stderr, "pipebench: %s answered %.17g, reference %.17g\n",
                   a.request.canonical().c_str(),
                   a.values.empty() ? 0.0 : a.values[0], want[0]);
  }
  if (mismatches > 0)
    checks.fail("window answers differ from the ledger reference", mismatches);
  checks.ok(answers.size() - mismatches);
}

void check_ledger_tails(const Stack& stack, Checks& checks) {
  for (std::size_t i = 0; i < stack.shards.size(); ++i) {
    const auto head = stack.shards[i]->store().latest();
    const auto tail = stack.ledgers[i]->at_epoch(head->epoch);
    checks.expect(
        stack.ledgers[i]->stats().tail_epoch == head->epoch && tail &&
            ledger::encode_record(*tail) ==
                ledger::encode_record(serve::to_record(*head)),
        "shard " + std::to_string(i) + ": ledger tail != to_record(latest)");
  }
}

/// Concatenated record bodies of epochs [1, ticks].
std::string ledger_bytes(const ledger::Ledger& log, std::uint64_t ticks) {
  std::string bytes;
  for (const ledger::TickRecord& record : log.range(1, ticks))
    bytes += ledger::encode_record(record);
  return bytes;
}

/// A fresh engine + store + ledger, as `vmpower serve --ledger` wires them.
struct SideFleet {
  fleet::FleetEngine engine;
  serve::SnapshotStore store;
  ledger::Ledger log;
  SideFleet(const fleet::FleetOptions& options,
            const core::OfflineDataset& dataset, std::uint64_t retention,
            const fs::path& dir, std::uint64_t segment_records)
      : engine(options, dataset),
        store(static_cast<std::size_t>(retention)),
        log(ledger_options(dir, segment_records)) {
    store.attach(engine);
    store.set_ledger(&log);
  }
};

/// The first shard's ledger prefix must be byte-identical to a threads = 1
/// run of the same seed.
void check_thread_prefix(const Stack& stack, std::uint64_t seed,
                         const fs::path& dir, Checks& checks) {
  fleet::FleetOptions options = fleet_options(stack.config, seed);
  options.threads = 1;
  SideFleet ref(options, *stack.dataset, stack.retention, dir,
                stack.config.segment_records);
  ref.engine.run(kPrefixTicks);
  checks.expect(ledger_bytes(*stack.ledgers.front(), kPrefixTicks) ==
                    ledger_bytes(ref.log, kPrefixTicks),
                "ledger prefix differs from a threads = 1 run of the seed");
}

/// Every end-of-run check on one stack: served windows against the ledger
/// reference, ledger tails, the threads = 1 prefix, and no degraded or
/// dropped host-ticks.
void verify_stack(const Stack& stack, const std::vector<WindowAnswer>& windows,
                  std::uint64_t seed, const fs::path& dir, Checks& checks) {
  check_windows(stack, windows, checks);
  check_ledger_tails(stack, checks);
  check_thread_prefix(stack, seed, dir, checks);
  for (const auto& engine : stack.engines)
    if (engine->degraded_ticks() + engine->samples_dropped() > 0)
      checks.fail("degraded or dropped host-ticks",
                  engine->degraded_ticks() + engine->samples_dropped());
}

// --------------------------------------------------------- traced extras

/// Flat-out wall-time host-ticks per second of one shard's fleet on a fresh
/// engine with `threads` workers, store and ledger attached.
double flat_out_host_ticks_per_s(const Stack& stack, std::uint64_t seed,
                                 std::size_t threads, double seconds,
                                 const fs::path& dir, Checks& checks) {
  fleet::FleetOptions options = fleet_options(stack.config, seed);
  options.threads = threads;
  SideFleet side(options, *stack.dataset, stack.retention, dir,
                 stack.config.segment_records);
  std::vector<double> tick_us;
  const std::uint64_t start = now_ns();
  while (seconds_since(start) < seconds) {
    const std::uint64_t t0 = now_ns();
    tick_checked(side.engine, checks);
    tick_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  const double busy_s = sum_of(tick_us) / 1e6;
  return static_cast<double>(options.hosts * tick_us.size()) / busy_s;
}

/// Uncached copies of every serve level over the shards' stores, so a
/// replayed query costs the same evaluation at each level.
struct Replay {
  std::vector<std::unique_ptr<fleet::Metrics>> metrics;
  std::vector<std::unique_ptr<serve::QueryEngine>> engines;
  std::vector<std::unique_ptr<serve::InProcessTransport>> inproc;
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::unique_ptr<serve::Client>> clients;
  fleet::Metrics fed_metrics;
  std::unique_ptr<federate::FederationFrontend> frontend;
};

std::unique_ptr<Replay> build_replay(Stack& stack) {
  auto replay = std::make_unique<Replay>();
  std::vector<federate::FleetShard> map;
  serve::QueryEngineOptions uncached;
  uncached.cache_capacity = 0;
  uncached.coalesce = false;
  for (std::size_t i = 0; i < stack.shards.size(); ++i) {
    replay->metrics.push_back(std::make_unique<fleet::Metrics>());
    replay->engines.push_back(std::make_unique<serve::QueryEngine>(
        stack.shards[i]->store(), uncached));
    replay->inproc.push_back(
        std::make_unique<serve::InProcessTransport>(*replay->engines.back()));
    replay->servers.push_back(std::make_unique<serve::Server>(
        *replay->engines.back(), *replay->metrics.back(),
        server_options(nullptr)));
    replay->clients.push_back(
        std::make_unique<serve::Client>(replay->servers.back()->port()));
    map.push_back({static_cast<std::uint32_t>(i + 1),
                   {replay->servers.back()->port()}});
  }
  federate::FrontendOptions options;
  options.deadline = std::chrono::milliseconds(2000);
  options.metrics = &replay->fed_metrics;
  replay->frontend = std::make_unique<federate::FederationFrontend>(
      federate::ShardMap(std::move(map)), options);
  return replay;
}

const char* engine_span_name(QueryClass cls) {
  switch (cls) {
    case QueryClass::kHot: return "serve.engine.hot";
    case QueryClass::kCold: return "serve.engine.cold";
    case QueryClass::kCost: return "serve.engine.cost";
  }
  return "serve.engine";
}

constexpr std::uint64_t kFedLeg = 0xff;

/// Replays a sample of each class through engine, in-process, TCP and
/// frontend, plus the ring and ledger reads under them. A warm-up call
/// through the frontend first brings every level to the same (uncached,
/// page-cache-warm) state.
void replay_ladder(Stack& stack, const std::vector<PlannedQuery>& queries,
                   SpanLog& log, std::vector<WindowAnswer>& windows,
                   Checks& checks) {
  auto replay = build_replay(stack);
  SpanBuffer spans;
  std::array<std::size_t, kClassCount> taken{};
  std::uint64_t n = 0;
  for (const PlannedQuery& q : queries) {
    std::size_t& count = taken[static_cast<std::size_t>(q.cls)];
    if (count >= kLadderPerClass) continue;
    ++count;
    const serve::Request& request = q.request;
    (void)replay->frontend->execute(request);  // warm-up.
    const std::string frame = serve::encode_frame(serve::encode_request(request));
    bool consistent = true;
    for (std::size_t i = 0; i < stack.shards.size(); ++i) {
      const std::uint64_t id = (n << 8) | i;
      serve::Response engine_answer, tcp_answer;
      std::string inproc_frame;
      (void)replay->engines[i]->execute(request);  // same warmth as inproc.
      {
        ScopedSpan span(&spans, engine_span_name(q.cls), id);
        engine_answer = replay->engines[i]->execute(request);
      }
      {
        ScopedSpan span(&spans, "serve.inproc", id);
        inproc_frame = replay->inproc[i]->roundtrip_binary(frame);
      }
      {
        ScopedSpan span(&spans, "serve.tcp", id);
        tcp_answer = replay->clients[i]->query(request);
      }
      const std::string body = serve::encode_response(engine_answer);
      consistent = consistent &&
                   inproc_frame.substr(serve::kFramePrefixBytes) == body &&
                   serve::encode_response(tcp_answer) == body;
      const serve::SnapshotStore& store = stack.shards[i]->store();
      if (q.cls == QueryClass::kHot && is_window(request.kind)) {
        for (const double t : {request.t0, request.t1}) {
          ScopedSpan span(&spans, "serve.ring_read", id);
          consistent = consistent && store.at_or_before(t) != nullptr;
        }
      } else if (q.cls == QueryClass::kCold) {
        // A cold start must miss the ring and be found in the ledger.
        consistent = consistent && store.at_or_before(request.t0) == nullptr;
        ScopedSpan span(&spans, "ledger.read", id);
        consistent = consistent &&
                     stack.ledgers[i]->at_or_before(request.t0).has_value();
      }
    }
    serve::Response fed;
    {
      ScopedSpan span(&spans, "federate.execute", (n << 8) | kFedLeg);
      fed = replay->frontend->execute(request);
    }
    consistent = consistent && fed.ok && fed.complete;
    checks.expect(consistent, "replay levels disagree on " + request.canonical());
    if (fed.ok && is_window(request.kind)) windows.push_back({request, fed.values});
    ++n;
  }
  log.merge(spans);
}

// ---------------------------------------------------------- layer metrics

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<double> joined_difference(
    const std::unordered_map<std::uint64_t, double>& outer,
    const std::unordered_map<std::uint64_t, double>& inner) {
  std::vector<double> out;
  for (const auto& [id, us] : outer)
    if (const auto it = inner.find(id); it != inner.end())
      out.push_back(us - it->second);
  return out;
}

/// From the tick phase: its fleet.run spans and HostTickResult figures.
void fleet_layer_metrics(const Stack& stack, const SpanLog& log,
                         const HostStats& stats, Values& m) {
  const auto runs = log.by_id_us("fleet.run");
  const auto observer = log.by_id_us("fleet.observer");
  const auto publish = log.by_id_us("serve.publish_tick");
  const auto append = log.by_id_us("ledger.append");
  const double threads = static_cast<double>(stack.config.threads);
  std::vector<double> fleet_tick, overhead, publish_us, append_us;
  double tick_sum = 0.0, step_sum = 0.0;
  for (const auto& [id, us] : runs) {
    const auto o = observer.find(id);
    const auto p = publish.find(id);
    const auto a = append.find(id);
    const auto s = stats.tick_step_sum_us.find(id);
    if (o == observer.end() || p == publish.end() || a == append.end() ||
        s == stats.tick_step_sum_us.end())
      continue;
    const double tick = us - o->second;
    fleet_tick.push_back(tick);
    overhead.push_back(tick - s->second / threads);
    publish_us.push_back(p->second);
    append_us.push_back(a->second);
    tick_sum += tick;
    step_sum += s->second;
  }
  m["fleet.tick_p50_us"] = percentile(fleet_tick, 0.50);
  m["fleet.tick_p99_us"] = percentile(fleet_tick, 0.99);
  m["fleet.worker_busy_frac"] = ratio(step_sum, threads * tick_sum);
  m["fleet.overhead_p50_us"] = percentile(overhead, 0.50);
  std::vector<double> sim_us;
  for (std::size_t k = 0; k < stats.step_us.size(); ++k)
    sim_us.push_back(stats.step_us[k] - stats.estimate_us[k]);
  m["sim.step_p50_us"] = percentile(sim_us, 0.50);
  m["core.estimate_p50_us"] = percentile(stats.estimate_us, 0.50);
  m["core.estimate_p99_us"] = percentile(stats.estimate_us, 0.99);
  m["core.estimate_share"] = ratio(sum_of(stats.estimate_us), sum_of(stats.step_us));
  double host_ticks = 0;
  for (const auto& [kernel, count] : stats.kernels) host_ticks += static_cast<double>(count);
  for (const char* kernel : {"collapsed", "sweep", "sampled", "legacy"}) {
    const auto it = stats.kernels.find(kernel);
    m[std::string("core.kernel.") + kernel + "_frac"] =
        ratio(it == stats.kernels.end() ? 0.0 : static_cast<double>(it->second),
              host_ticks);
  }
  m["core.table_hit_rate"] =
      ratio(sum_of(stats.last_table_hit_rate),
            static_cast<double>(stats.last_table_hit_rate.size()));
  m["serve.publish_p50_us"] = percentile(publish_us, 0.50);
  m["serve.publish_p99_us"] = percentile(publish_us, 0.99);
  m["ledger.append_p50_us"] = percentile(append_us, 0.50);
  m["ledger.append_p99_us"] = percentile(append_us, 0.99);
}

void serve_layer_metrics(Stack& stack, const SpanLog& log, Values& m) {
  double bytes = 0, records = 0, compacted = 0;
  for (const auto& l : stack.ledgers) {
    const ledger::Stats s = l->stats();
    bytes += static_cast<double>(s.appended_bytes);
    records += static_cast<double>(s.appended_records);
    compacted += static_cast<double>(s.compacted_records);
  }
  m["ledger.bytes_per_record"] = ratio(bytes, records);
  m["ledger.compacted_records"] = compacted;
  m["ledger.read_p50_us"] = percentile(log.durations_us("ledger.read"), 0.50);
  m["ledger.read_p99_us"] = percentile(log.durations_us("ledger.read"), 0.99);
  m["serve.ring_read_p50_us"] =
      percentile(log.durations_us("serve.ring_read"), 0.50);
  for (const char* cls : {"hot", "cold"}) {
    const auto us = log.durations_us(std::string("serve.engine.") + cls);
    m[std::string("serve.engine.") + cls + "_p50_us"] = percentile(us, 0.50);
    m[std::string("serve.engine.") + cls + "_p99_us"] = percentile(us, 0.99);
  }
  m["serve.engine.cost_p50_us"] =
      percentile(log.durations_us("serve.engine.cost"), 0.50);

  double hits = 0, misses = 0, coalesced = 0;
  for (const auto& shard : stack.shards) {
    hits += static_cast<double>(shard->engine().cache_hits());
    misses += static_cast<double>(shard->engine().cache_misses());
    coalesced += static_cast<double>(shard->engine().coalesced());
  }
  m["serve.cache_hit_ratio"] = ratio(hits, hits + misses);
  m["serve.coalesced"] = coalesced;

  std::unordered_map<std::uint64_t, double> engine;
  for (const char* name : {"serve.engine.hot", "serve.engine.cold", "serve.engine.cost"})
    for (const auto& [id, us] : log.by_id_us(name)) engine[id] = us;
  const auto inproc = log.by_id_us("serve.inproc");
  const auto tcp = log.by_id_us("serve.tcp");
  m["serve.inproc_p50_us"] = percentile(joined_difference(inproc, engine), 0.50);
  m["serve.tcp_p50_us"] = percentile(joined_difference(tcp, inproc), 0.50);

  for (std::size_t s = 0; s < serve::kStageCount; ++s) {
    const auto stage = static_cast<serve::Stage>(s);
    util::QuantileSketch fed = stack.fed_profiler.stage_sketch(stage);
    util::QuantileSketch shards = stack.shard_profilers.front()->stage_sketch(stage);
    for (std::size_t i = 1; i < stack.shard_profilers.size(); ++i)
      shards.merge(stack.shard_profilers[i]->stage_sketch(stage));
    const std::string name = kStageNames[s];
    m["serve.stage." + name + "_p50_us"] = fed.quantile(0.50) * 1e6;
    m["serve.stage." + name + "_p99_us"] = fed.quantile(0.99) * 1e6;
    m["serve.shard_stage." + name + "_p50_us"] = shards.quantile(0.50) * 1e6;
    m["serve.shard_stage." + name + "_p99_us"] = shards.quantile(0.99) * 1e6;
  }

  const auto fed = log.by_id_us("federate.execute");
  std::vector<double> fed_us, fanout;
  for (const auto& [id, us] : fed) {
    fed_us.push_back(us);
    double slowest = 0.0;
    for (std::uint64_t i = 0; i < stack.shards.size(); ++i)
      if (const auto it = tcp.find((id & ~kFedLeg) | i); it != tcp.end())
        slowest = std::max(slowest, it->second);
    fanout.push_back(us - slowest);
  }
  m["federate.execute_p50_us"] = percentile(fed_us, 0.50);
  m["federate.execute_p99_us"] = percentile(fed_us, 0.99);
  m["federate.fanout_overhead_p50_us"] = percentile(fanout, 0.50);
  const federate::ConnectionPool* pool = stack.frontend->pool();
  m["federate.pool_hit_ratio"] =
      pool ? ratio(static_cast<double>(pool->hits()),
                   static_cast<double>(pool->hits() + pool->misses()))
           : 0.0;
  m["federate.retries"] = static_cast<double>(
      stack.fed_metrics.counter("vmpower_fed_retries_total", "").value());
  m["federate.partials"] = static_cast<double>(
      stack.fed_metrics.counter("vmpower_fed_partial_total", "").value());
}

// ---------------------------------------------------------------- output

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(v) ? v : 0.0);
  return buffer;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string result_json(bool correct, const Checks& checks,
                        const std::vector<MetricDecl>& decls,
                        const Values& values) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(1, checks.attempted())
      << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < decls.size(); ++i) {
    const auto it = values.find(decls[i].name);
    out << (i ? ", " : "") << "\"" << decls[i].name << "\": {\"value\": "
        << json_number(it == values.end() ? 0.0 : it->second)
        << ", \"unit\": \"" << decls[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string spec_json() {
  std::ostringstream out;
  out << "{\n  \"workloads\": [\n";
  const auto& w = workloads();
  for (std::size_t i = 0; i < w.size(); ++i)
    out << "    {\"name\": \"" << w[i].name << "\", \"why\": \""
        << json_escape(w[i].why) << "\"}" << (i + 1 < w.size() ? ",\n" : "\n");
  out << "  ],\n";
  const auto list = [&out](const char* key, const std::vector<MetricDecl>& m,
                           bool bound, bool last) {
    out << "  \"" << key << "\": [\n";
    for (std::size_t i = 0; i < m.size(); ++i) {
      out << "    {\"name\": \"" << m[i].name << "\", \"unit\": \"" << m[i].unit
          << "\", \"better\": \"" << m[i].better << "\"";
      if (bound) out << ", \"bound\": " << json_number(m[i].bound);
      out << ", \"note\": \"" << json_escape(m[i].note) << "\"}"
          << (i + 1 < m.size() ? ",\n" : "\n");
    }
    out << "  ]" << (last ? "\n" : ",\n");
  };
  list("end_to_end", end_to_end_metrics(), true, false);
  list("per_layer", per_layer_metrics(), false, true);
  out << "}\n";
  return out.str();
}

// --------------------------------------------------------------- the run

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path out_dir = ".bench_out";
};

int run(const RunArgs& args) {
  const WorkloadConfig* found = nullptr;
  for (const WorkloadConfig& w : workloads())
    if (w.name == args.workload) found = &w;
  if (found == nullptr) {
    std::fprintf(stderr, "pipebench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadConfig& config = *found;
  obs::Tracer::global().set_enabled(false);

  const std::string tag = config.name + "-seed" + std::to_string(args.seed) +
                          "-trace" + std::to_string(args.trace ? 1 : 0);
  const fs::path dir =
      args.out_dir / "runs" / (tag + "-pid" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::printf("# pipebench workload=%s seed=%llu seconds=%g trace=%d "
              "build_type=%s compiler=\"%s\" nproc=%u\n",
              config.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, PIPEBENCH_BUILD_TYPE,
              PIPEBENCH_COMPILER, std::thread::hardware_concurrency());

  Checks checks;
  Values values;
  // A set-up and its CPU time in seconds, with a yardstick measurement on
  // either side of it.
  std::vector<double> setup_yardstick_us;
  const auto setup = [&](const std::string& name) {
    setup_yardstick_us.push_back(yardstick_us());
    const std::uint64_t start = process_cpu_ns();
    auto stack = build_stack(config, args.seed, args.seconds, dir / name, checks);
    checks.ok(config.shards * config.hosts *
              history_for(config, args.seconds));
    const double cpu_s = static_cast<double>(process_cpu_ns() - start) / 1e9;
    setup_yardstick_us.push_back(yardstick_us());
    return std::make_pair(std::move(stack), cpu_s);
  };

  if (!args.trace) {
    std::vector<double> setup_cpu_s;
    std::unique_ptr<Stack> stack;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      stack.reset();
      auto [built, took] = setup("setup" + std::to_string(rep));
      stack = std::move(built);
      setup_cpu_s.push_back(took);
    }
    values["setup_s"] = scale_to_yardstick(p50_of(setup_cpu_s), setup_yardstick_us);
    const Pass pass = run_pass(*stack, args.seed, args.seconds, nullptr, checks);
    values.insert(pass.values.begin(), pass.values.end());
    verify_stack(*stack, pass.windows, args.seed, dir / "prefix", checks);
    stack.reset();
    values["peak_rss_mb"] = peak_rss_mb();
  } else {
    // Half the window untraced and half traced, each on its own stack built
    // from the same seed: both passes run the same ticks, the same query
    // sequence and the same observer with its shadow publish and append, so
    // their difference is the tracing overhead alone.
    const double half = args.seconds / 2;
    Values untraced;
    {
      auto stack = setup("untraced").first;
      HostStats stats;
      ObserverSink sink{nullptr, &stats};
      const auto shadows = install_shadows(*stack, dir / "untraced", sink);
      const Pass pass = run_pass(*stack, args.seed, half, nullptr, checks);
      restore_observers(*stack);
      untraced = pass.values;
      verify_stack(*stack, pass.windows, args.seed, dir / "prefix-untraced",
                   checks);
    }

    auto stack = setup("traced").first;
    SpanLog log;
    SpanBuffer observer_spans;  // ticks never overlap, so one buffer serves.
    ObserverSink sink{&observer_spans, nullptr};
    Tracing tracing{log, sink, {}, {}};
    const auto shadows = install_shadows(*stack, dir / "traced", sink);
    const Pass traced = run_pass(*stack, args.seed, half, &tracing, checks);
    fleet_layer_metrics(*stack, log, tracing.tick_stats, values);
    std::vector<WindowAnswer> windows = traced.windows;
    replay_ladder(*stack, traced.queries, log, windows, checks);
    restore_observers(*stack);

    // The same job at the workload's threads and at 1 thread, both on
    // fresh engines so neither carries the other's warm caches.
    const double baseline_s = std::min(2.0, std::max(0.5, args.seconds / 5));
    const double at_threads = flat_out_host_ticks_per_s(
        *stack, args.seed, config.threads, baseline_s, dir / "at-threads", checks);
    const double one_thread = flat_out_host_ticks_per_s(
        *stack, args.seed, 1, baseline_s, dir / "one-thread", checks);
    values["fleet.scaling_vs_1t"] = ratio(at_threads, one_thread);
    serve_layer_metrics(*stack, log, values);
    for (const MetricDecl& wall : wall_metrics())
      values["wall." + wall.name] = untraced.at("wall." + wall.name);
    for (const MetricDecl& e2e : end_to_end_metrics())
      if (const auto it = untraced.find(e2e.name); it != untraced.end())
        values["trace.overhead." + e2e.name] = traced.values.at(e2e.name) - it->second;
    verify_stack(*stack, windows, args.seed, dir / "prefix-traced", checks);
    fs::create_directories(args.out_dir / "traces");
    log.write_chrome_json(args.out_dir / "traces" / (tag + ".json"));
  }
  fs::remove_all(dir);

  const auto& decls = args.trace ? per_layer_metrics() : end_to_end_metrics();
  bool complete = true;
  for (const MetricDecl& d : decls) {
    const auto it = values.find(d.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      complete = false;
      checks.fail("metric " + d.name + " was not measured");
    }
  }
  const bool correct = complete && checks.failed() == 0;
  for (const MetricDecl& d : decls)
    std::printf("%-40s %16.4f %s\n", d.name.c_str(), values[d.name], d.unit.c_str());
  std::printf("ops_failed_frac %.6g (%llu of %llu)\n",
              static_cast<double>(checks.failed()) /
                  static_cast<double>(std::max<std::uint64_t>(1, checks.attempted())),
              static_cast<unsigned long long>(checks.failed()),
              static_cast<unsigned long long>(checks.attempted()));

  const std::string result = result_json(correct, checks, decls, values);
  fs::create_directories(args.out_dir / "results");
  std::ofstream record(args.out_dir / "results" / (tag + ".json"));
  record << "{\"workload\": \"" << config.name << "\", \"seed\": " << args.seed
         << ", \"seconds\": " << json_number(args.seconds)
         << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"build_type\": \""
         << PIPEBENCH_BUILD_TYPE << "\", \"compiler\": \"" << PIPEBENCH_COMPILER
         << "\", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

// ----------------------------------------------------------- self-test

int self_test() {
  Checks checks;
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::map<std::string, int> seen;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricDecl& m : *list) {
      checks.expect(std::regex_match(m.name, name_re), "bad metric name " + m.name);
      checks.expect(std::regex_match(m.unit, unit_re), "bad unit on " + m.name);
      checks.expect(m.better == "lower" || m.better == "higher",
                    "bad direction on " + m.name);
      checks.expect(++seen[m.name] == 1, "duplicate metric " + m.name);
    }
  for (const WorkloadConfig& w : workloads())
    checks.expect(std::regex_match(w.name, name_re), "bad workload name " + w.name);

  // Same seed, same query sequence; another seed, another sequence.
  QueryUniverse u;
  u.vms = {{0, 1}, {0, 2}, {1, 1}, {1, 2}};
  u.tenants = {1, 2};
  u.retention = retention_for(workloads().back(), 2);
  u.end_tick = u.retention + kColdSpan + 100;
  const auto canon = [](const std::vector<PlannedQuery>& qs) {
    std::string s;
    for (const PlannedQuery& q : qs) s += q.request.canonical() + "\n";
    return s;
  };
  const std::string a = canon(generate_queries(7, u, 4096));
  checks.expect(a == canon(generate_queries(7, u, 4096)),
                "same seed gave different query sequences");
  checks.expect(a != canon(generate_queries(8, u, 4096)),
                "different seeds gave the same query sequence");
  std::map<std::string, int> cold;
  for (const PlannedQuery& q : generate_queries(7, u, 4096))
    if (q.cls == QueryClass::kCold) {
      checks.expect(q.request.t0 < static_cast<double>(u.end_tick - u.retention),
                    "cold window starts inside the ring");
      checks.expect(++cold[q.request.canonical()] == 1, "cold window repeats");
    }

  // Same seed, same ledger bytes; another seed, other bytes.
  WorkloadConfig tiny{"tiny", "", 1, 2, {1, 2}, 2, 2, 0, 0, 64};
  const fs::path dir = fs::path(".bench_out") / "runs" /
                       ("self-test-pid" + std::to_string(::getpid()));
  const auto bytes = [&](std::uint64_t seed, const char* name) {
    core::CollectionOptions collect;
    collect.duration_s = 10;
    collect.seed = seed;
    const auto dataset = core::collect_offline_dataset(
        sim::xeon_prototype(), fleet_options(tiny, seed).fleet_per_host, collect);
    SideFleet side(fleet_options(tiny, seed), dataset, 32, dir / name, 64);
    side.engine.run(24);
    return ledger_bytes(side.log, 24);
  };
  const std::string first = bytes(7, "a");
  checks.expect(!first.empty() && first == bytes(7, "b"),
                "same seed gave different ledger bytes");
  checks.expect(first != bytes(8, "c"), "different seeds gave the same ledger bytes");
  fs::remove_all(dir);

  std::printf("self-test: %llu checks, %llu failed\n",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  return checks.failed() == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_pipeline --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "       bench_pipeline --spec | --self-test\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  if (std::string_view(PIPEBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "pipebench: refusing to report from a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PIPEBENCH_BUILD_TYPE);
    return 2;
  }
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--spec") {
      std::printf("%s", spec_json().c_str());
      return 0;
    }
    if (flag == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "pipebench: unknown flag %s\n", flag.c_str());
      return usage();
    }
  }
  if (!have_workload || !(args.seconds > 0)) return usage();
  return run(args);
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  try {
    return pipebench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }
}
