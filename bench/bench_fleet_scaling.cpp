// Fleet engine scaling: throughput vs. thread count vs. fleet size.
//
// The Shapley value's Additivity axiom makes the per-host games independent,
// so fleet metering should scale with worker threads until the machine runs
// out of cores (the aggregation thread serializes only the cheap roll-up).
// This bench drives FleetEngine over a hosts x threads grid and reports
// host-ticks/s — one host-tick being one complete Fig. 8 online step (sim
// advance + meter read + Shapley estimate + ledger roll-up) for one host.
// Thread counts beyond the hardware's cores measure oversubscription, not
// speedup; the table prints the detected core count for context.
//
// The second grid packs 8 VMs of three types onto each host, so the Shapley
// estimate is a larger share of each host step.
//
// Every cell's tenant ledger must equal its hosts row's 1-thread cell; the
// bench exits 1 when one differs.
//
// Pass --quick for the CI smoke configuration: a trimmed grid and tick count
// that finishes in seconds while still exercising every code path.
//
// Pass --tracing-overhead to skip the grids and instead emit a JSON record
// comparing per-tick latency with the global tracer disarmed vs armed — the
// evidence behind the "<3% overhead" acceptance bar in EXPERIMENTS.md. Run it
// once against the default build and once against -DVMPOWER_TRACING=OFF (the
// record carries tracing_compiled so the two are distinguishable).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/vm_config.hpp"
#include "core/collector.hpp"
#include "fleet/engine.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"
#include "serve/transport.hpp"
#include "util/table.hpp"

using namespace vmp;

namespace {

struct Cell {
  double wall_s = 0.0;
  /// The tenant ledger as doubles: per tenant its total and its energy on
  /// each host, then the unattributed energy.
  std::vector<double> ledger;
};

Cell run_once(const core::OfflineDataset& dataset,
              const std::vector<common::VmConfig>& fleet, std::size_t hosts,
              std::size_t threads, std::uint64_t ticks) {
  fleet::FleetOptions options;
  options.hosts = hosts;
  options.threads = threads;
  options.fleet_per_host = fleet;
  options.seed = 11;
  const auto start = std::chrono::steady_clock::now();
  fleet::FleetEngine engine(options, dataset);
  engine.run(ticks);
  Cell cell;
  cell.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const core::MultiHostAccountant& tenants = engine.tenant_ledger();
  for (const core::TenantId tenant : tenants.tenants()) {
    cell.ledger.push_back(tenants.tenant_energy_j(tenant));
    for (std::size_t h = 0; h < hosts; ++h)
      cell.ledger.push_back(tenants.tenant_energy_on_host_j(
          tenant, static_cast<core::HostId>(h)));
  }
  cell.ledger.push_back(tenants.unattributed_energy_j());
  return cell;
}

/// Prints one hosts x threads table. Returns false when a cell's tenant
/// ledger differs from its hosts row's first (1-thread) cell.
bool run_grid(const char* banner, const core::OfflineDataset& dataset,
              const std::vector<common::VmConfig>& fleet,
              std::span<const std::size_t> host_counts,
              std::span<const std::size_t> thread_counts,
              std::uint64_t ticks) {
  util::print_banner(banner);
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());
  util::TablePrinter table({"hosts", "threads", "wall (ms)", "host-ticks/s",
                            "speedup vs 1T", "ledger vs 1T"});
  bool identical = true;
  for (const std::size_t hosts : host_counts) {
    Cell serial;
    for (const std::size_t threads : thread_counts) {
      const Cell cell = run_once(dataset, fleet, hosts, threads, ticks);
      if (threads == thread_counts.front()) serial = cell;
      const bool same = cell.ledger == serial.ledger;
      identical = identical && same;
      table.add_row({std::to_string(hosts), std::to_string(threads),
                     util::TablePrinter::num(cell.wall_s * 1e3, 1),
                     util::TablePrinter::num(
                         static_cast<double>(hosts * ticks) / cell.wall_s, 0),
                     util::TablePrinter::num(serial.wall_s / cell.wall_s, 2),
                     same ? "identical" : "DIFFERS"});
    }
  }
  table.print();
  return identical;
}

// Wire-propagation cost on the serve path: every query carries a full trace
// context block (id + trace id + parent span + budget) through the same
// Dispatcher the TCP workers run, so the armed-vs-disarmed delta is the cost
// of adopting the remote context and recording the per-request spans, and
// the disarmed number proves propagation idles at one relaxed load per span
// site. Returns the minimum per-query wall in microseconds.
double run_propagated_queries(serve::InProcessTransport& transport,
                              const std::string& frame, std::uint64_t queries) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < queries; ++i)
    (void)transport.roundtrip_binary(frame);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() *
         1e6 / static_cast<double>(queries);
}

// Disarmed-vs-armed tracer latency on one fixed fleet configuration plus the
// serve-path propagation arms. Reps alternate between the arms so clock
// drift and cache warm-up hit both equally; the minimum wall per arm is the
// least-noisy estimate.
int run_tracing_overhead(bool quick) {
  const std::vector<common::VmConfig> fleet = {common::paper_vm_type(1),
                                               common::paper_vm_type(2)};
  core::CollectionOptions collect;
  collect.duration_s = quick ? 20.0 : 60.0;
  const auto dataset =
      core::collect_offline_dataset(sim::xeon_prototype(), fleet, collect);

  const std::size_t hosts = 4;
  const std::size_t threads = 2;
  const std::uint64_t ticks = quick ? 40 : 200;
  const int reps = quick ? 3 : 5;

  obs::Tracer& tracer = obs::Tracer::global();
  double disarmed_wall = 1e300;
  double armed_wall = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    tracer.set_enabled(false);
    disarmed_wall = std::min(
        disarmed_wall, run_once(dataset, fleet, hosts, threads, ticks).wall_s);
    tracer.set_enabled(true);
    tracer.clear();  // bound ring memory across reps.
    armed_wall = std::min(
        armed_wall, run_once(dataset, fleet, hosts, threads, ticks).wall_s);
  }
  tracer.set_enabled(false);

  // Serve-path propagation: a tiny snapshot keeps the engine cost flat so the
  // delta isolates the trace-context decode + span recording per query.
  serve::SnapshotStore store(8);
  serve::Snapshot snapshot;
  snapshot.tick = 1;
  snapshot.time_s = 1.0;
  snapshot.vms = {{1, 1, 1, 10.0, 10.0}, {1, 2, 2, 20.0, 20.0}};
  snapshot.tenants = {{1, 10.0, 10.0}, {2, 20.0, 20.0}};
  snapshot.total_power_w = 30.0;
  snapshot.total_energy_j = 30.0;
  store.publish(snapshot);
  serve::QueryEngine engine(store, {});
  serve::InProcessTransport transport(engine, nullptr);
  serve::Request request;
  request.kind = serve::QueryKind::kFleetPower;
  serve::TraceContextWire wire;
  wire.trace_id = 42;
  wire.parent_span = 7;
  wire.budget_us = 250000;
  const std::string traced_frame = serve::encode_frame_with_trace(
      serve::encode_request(request), 1, wire);
  const std::uint64_t queries = quick ? 5000 : 50000;
  double prop_disarmed_us = 1e300;
  double prop_armed_us = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    tracer.set_enabled(false);
    prop_disarmed_us = std::min(
        prop_disarmed_us, run_propagated_queries(transport, traced_frame,
                                                 queries));
    tracer.set_enabled(true);
    tracer.clear();
    prop_armed_us = std::min(
        prop_armed_us, run_propagated_queries(transport, traced_frame,
                                              queries));
  }
  tracer.set_enabled(false);

  const double disarmed_us = disarmed_wall * 1e6 / static_cast<double>(ticks);
  const double armed_us = armed_wall * 1e6 / static_cast<double>(ticks);
  const double overhead_pct = (armed_us / disarmed_us - 1.0) * 100.0;
  const double prop_overhead_pct =
      (prop_armed_us / prop_disarmed_us - 1.0) * 100.0;
  std::printf(
      "{\"benchmark\":\"fleet_tracing_overhead\","
      "\"tracing_compiled\":%s,\"hosts\":%zu,\"threads\":%zu,"
      "\"vms_per_host\":%zu,\"ticks\":%llu,\"reps\":%d,"
      "\"disarmed_us_per_tick\":%.2f,\"armed_us_per_tick\":%.2f,"
      "\"armed_overhead_pct\":%.2f,"
      "\"propagation_queries\":%llu,"
      "\"propagation_disarmed_us_per_query\":%.3f,"
      "\"propagation_armed_us_per_query\":%.3f,"
      "\"propagation_armed_overhead_pct\":%.2f}\n",
      VMPOWER_TRACING_COMPILED ? "true" : "false", hosts, threads, fleet.size(),
      static_cast<unsigned long long>(ticks), reps, disarmed_us, armed_us,
      overhead_pct, static_cast<unsigned long long>(queries), prop_disarmed_us,
      prop_armed_us, prop_overhead_pct);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool tracing_overhead = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--tracing-overhead") == 0)
      tracing_overhead = true;
  }
  if (tracing_overhead) return run_tracing_overhead(quick);

  const std::vector<common::VmConfig> small_fleet = {common::paper_vm_type(1),
                                                     common::paper_vm_type(2)};
  // 4xVM1 + 2xVM2 + 2xVM3.
  std::vector<common::VmConfig> mixed_fleet;
  for (int k = 0; k < 4; ++k) mixed_fleet.push_back(common::paper_vm_type(1));
  for (int k = 0; k < 2; ++k) mixed_fleet.push_back(common::paper_vm_type(2));
  for (int k = 0; k < 2; ++k) mixed_fleet.push_back(common::paper_vm_type(3));

  core::CollectionOptions collect;
  collect.duration_s = quick ? 20.0 : 60.0;
  const auto small_dataset =
      core::collect_offline_dataset(sim::xeon_prototype(), small_fleet,
                                    collect);
  const auto mixed_dataset =
      core::collect_offline_dataset(sim::xeon_prototype(), mixed_fleet,
                                    collect);

  const std::uint64_t ticks = quick ? 20 : 200;
  const std::vector<std::size_t> host_counts =
      quick ? std::vector<std::size_t>{2, 4} : std::vector<std::size_t>{2, 4, 8, 16};
  // 1 thread runs without a pool; 4 threads outnumber the 2-host rows.
  const std::vector<std::size_t> thread_counts = {1, 2, 4};

  const std::string ticks_label = std::to_string(ticks);
  const bool small_identical = run_grid(
      ("fleet engine scaling (" + ticks_label + " ticks, 2 VMs/host)").c_str(),
      small_dataset, small_fleet, host_counts, thread_counts, ticks);
  const bool mixed_identical =
      run_grid(("fleet engine scaling (" + ticks_label +
                " ticks, 8 mixed VMs/host: 4xVM1+2xVM2+2xVM3)")
                   .c_str(),
               mixed_dataset, mixed_fleet, host_counts, thread_counts, ticks);
  if (!small_identical || !mixed_identical) {
    std::printf("determinism contract BROKEN: a cell's tenant ledger differs "
                "from its hosts row's 1-thread cell.\n");
    return 1;
  }
  std::printf("determinism contract: the tenant ledgers of every cell in one "
              "hosts row are byte-identical.\n");
  return 0;
}
