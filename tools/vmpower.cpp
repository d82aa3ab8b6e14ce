// vmpower — command-line front end for the estimation pipeline.
//
// Mirrors how an operator would run the paper's system on a host:
//
//   vmpower collect --fleet VM1,VM1,VM2 --duration 300 --out table.vsc
//       run the offline v(S,C) campaign for the fleet's VHC combinations and
//       persist the table (Fig. 8, offline path);
//
//   vmpower train --table table.vsc --out approx.vhc
//       fit the VHC linear approximation from a stored table;
//
//   vmpower meter --fleet VM1,VM1,VM2 --approx approx.vhc --duration 60
//       simulate the fleet under SPEC-like load and stream per-VM power
//       (Fig. 8, online path); optional --csv out.csv;
//
//   vmpower bill --fleet ... --approx ... --duration 600 --tariff 0.10
//       --idle-policy equal|proportional|none
//       run the meter and print per-VM energy and cost;
//
//   vmpower info --approx approx.vhc
//       dump fitted combinations and weights.
//
//   vmpower fleet --hosts 8 --fleet VM1,VM2 --threads 4 --duration 120
//       meter N simulated hosts concurrently and roll per-VM shares up into
//       tenant ledgers; optional fault injection, Prometheus metrics dump,
//       and checkpoint/resume (see the "Fleet metering service" README
//       section).
//
//   vmpower serve --fleet VM1,VM2 --hosts 4 --duration 300 --port 7077
//       run the fleet engine with a snapshot store attached and answer
//       point/window/cost queries over loopback TCP while it meters (and for
//       --linger further seconds afterwards); see the "Query service" README
//       section for the protocol.
//
//   vmpower query --port 7077 tenant-energy 1 0 120
//       send one query (binary protocol; --proto text for the line
//       protocol) and print the response line; --timeout-ms bounds how long
//       the client waits before giving up with a clean timeout error.
//
//   vmpower federate --shards 1=7071;2=7072;3=7073 --port 7080
//       front N running fleet shards with a scatter-gather federation
//       frontend speaking the same protocol (see the "Federation" README
//       section); --spin N instead stands the shards up in-process.
//
//   vmpower trace --out trace.jsonl
//       run a short traced fleet + query workload and dump the span ring as
//       Chrome trace-event JSONL (chrome://tracing, Perfetto).
//
//   vmpower scrape --port 7077 [--what metrics|trace|health]
//       pull a Prometheus exposition, trace JSONL, or the HEALTH payload
//       (stage latency quantiles, SLO cells, slow-query log) from a running
//       `vmpower serve` over its text protocol.
//
//   vmpower slo --port 7077
//       print the serving tier's SLO compliance and burn rates.
//
//   vmpower ledger inspect|verify|compact --dir DIR
//       examine or maintain a durable attribution ledger directory (the
//       write-ahead log `vmpower serve --ledger DIR` appends to); see the
//       "Durable history" README section.
//
// Fleet syntax: comma-separated Table IV type names (VM1..VM4). The machine
// is the calibrated Xeon prototype (--machine pentium for the desktop).
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/units.hpp"
#include "common/vm_config.hpp"
#include "federate/frontend.hpp"
#include "federate/shard_map.hpp"
#include "federate/spin.hpp"
#include "core/accountant.hpp"
#include "core/collector.hpp"
#include "core/estimator.hpp"
#include "core/online.hpp"
#include "core/serialization.hpp"
#include "core/pricing.hpp"
#include "fleet/engine.hpp"
#include "ledger/ledger.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/profile.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/transport.hpp"
#include "sim/physical_machine.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workload/spec_suite.hpp"

using namespace vmp;

namespace {

constexpr const char* kUsage = R"(usage: vmpower <command> [options]
A flag the command (or its chosen mode) does not read is an error: e.g.
--segment-records without --ledger, or the --spin shard shape under --shards.
commands:
  collect --fleet VM1,VM2,...  --out FILE [--duration S] [--seed N] [--machine xeon|pentium]
  train   --table FILE --out FILE [--ridge L]
  meter   --fleet VM1,... --approx FILE [--duration S] [--seed N] [--csv FILE]
          [--machine M]
  bill    --fleet VM1,... --approx FILE [--duration S] [--seed N] [--csv FILE]
          [--tariff $/kWh] [--idle-policy none|equal|proportional]
          [--machine M]
  info    --approx FILE
  fleet   --fleet VM1,... [--hosts N] [--threads T] [--duration S] [--tenants K]
          [--seed N] [--tariff $/kWh] [--collect-duration S] [--machine M]
          [--inject-faults meter:P,dropout:P,stale:P] [--max-retries N]
          [--checkpoint FILE] [--metrics FILE] [--trace] [--trace-out FILE]
  serve   --fleet VM1,... [--hosts N] [--threads T] [--duration S] [--tenants K]
          [--port P] [--workers W] [--linger S] [--retention N]
          [--request-queue N] [--tokens-per-s R] [--burst B]
          [--cache N] [--cache-shards K] [--coalesce 0|1] [--ordered]
          [--offpeak-rate $/kWh] [--peak-rate $/kWh] [--peak-hours H0-H1]
          [--seconds-per-hour S] [--seed N] [--collect-duration S] [--machine M]
          [--ledger DIR] [--segment-records N] [--checkpoint FILE]
          [--metrics FILE] [--trace] [--trace-out FILE]
          [--slow-ms D] [--slo-ms D] [--slo-target Q]
          --slow-ms D      total latency at which a query enters the
                           slow-query log (default 50)
          --slo-ms D       SLO latency threshold (default: --slow-ms)
          --slo-target Q   latency objective, fraction of queries that must
                           finish under --slo-ms (default 0.99)
          --ledger DIR     append every published snapshot to a durable
                           write-ahead ledger; window queries older than the
                           retention ring fall through to it
          --checkpoint FILE with --ledger: restore the engine and replay the
                           ledger tail into the ring on start, save on exit
          --cache N        result-cache capacity across shards (0 disables)
          --cache-shards K independent LRU shards (lock striping)
          --coalesce 0|1   attach duplicate in-flight queries to one
                           evaluation (default 1)
          --ordered        force arrival-order responses even for id-stamped
                           requests (default: out-of-order completion; id-less
                           clients always get arrival order)
  query   --port P [--proto binary|text] [--id N] [--timeout-ms D] <verb> [args...]
          verbs: vm-power H V | tenant-power T | fleet-power | stats
                 vm-energy H V T0 T1 | tenant-energy T T0 T1 | tenant-cost T T0 T1
  federate (--shards "F=PORT[,PORT];..." | --spin N) [--port P] [--workers W]
          [--deadline-ms D] [--retries R] [--backoff-ms B]
          [--hedge] [--hedge-delay-ms H] [--skew accept|reject] [--max-skew N]
          [--fed-workers N] [--fed-pool-idle N]
          [--query "verb args"] [--linger S] [--metrics FILE]
          [--trace] [--trace-out FILE]
          [--slow-ms D] [--slo-ms D] [--slo-target Q]
          [--fleet VM1,... --hosts N --threads T --tenants K --duration TICKS
           --seed N --collect-duration S --machine M]
          (shard shape, read only under --spin)
          --shards         fleet-id=endpoint map of running `vmpower serve`
                           shards; extra comma-separated ports per fleet are
                           replicas eligible for hedged requests
          --spin N         stand up N in-process fleet shards instead, meter
                           them, then federate over them
          --deadline-ms D  per-shard per-attempt deadline (default 250)
          --hedge          race a replica when the primary is slow
          --skew reject    error (code 12) when shard epochs spread more
                           than --max-skew instead of rolling up at the min
          --fed-workers N  dispatch pool size (default 0 = shards x 2)
          --fed-pool-idle N  idle connections kept per shard endpoint
                           (default 2)
          --query "..."    answer one query through the frontend and exit;
                           without it, serve on --port for --linger seconds
  trace   [--fleet VM1,...] [--hosts N] [--duration TICKS] [--out FILE]
          [--seed N] [--collect-duration S] [--machine M]
  scrape  --port P [--what metrics|trace|health] [--out FILE]
  slo     --port P [--full]   SLO compliance and burn rates from a running
                              server's HEALTH scrape; --full adds the
                              per-stage latency quantiles and slow-query log
  ledger  inspect --dir DIR   list segments, extent, and recovery findings
          verify  --dir DIR   full-scan integrity check (read-only; exit 1
                              on torn records or epoch gaps)
          compact --dir DIR   compact every sealed WAL segment into an
                              indexed cold segment [--index-stride N]
)";

sim::MachineSpec machine_for(const util::CliArgs& args) {
  const std::string name = args.get("machine", "xeon");
  if (name == "xeon") return sim::xeon_prototype();
  if (name == "pentium") return sim::pentium_desktop();
  throw std::invalid_argument("unknown --machine '" + name +
                              "' (expected xeon or pentium)");
}

/// --fleet as VM configs; required unless `fallback` names a default fleet.
std::vector<common::VmConfig> fleet_for(const util::CliArgs& args,
                                        const std::string& fallback = "") {
  const auto names = util::split_csv(
      fallback.empty() ? args.require("fleet") : args.get("fleet", fallback));
  const auto catalogue = common::paper_vm_catalogue();
  std::vector<common::VmConfig> fleet;
  for (const std::string& name : names) {
    bool found = false;
    for (const auto& config : catalogue) {
      if (config.type_name == name) {
        fleet.push_back(config);
        found = true;
        break;
      }
    }
    if (!found)
      throw std::invalid_argument("unknown VM type '" + name +
                                  "' (expected VM1..VM4)");
  }
  if (fleet.empty()) throw std::invalid_argument("--fleet is empty");
  return fleet;
}

/// Path option `key`: empty when absent, an error when given without a path.
std::string path_for(const util::CliArgs& args, const std::string& key) {
  return args.has(key) ? args.require(key) : std::string{};
}

/// The fleet shape that fleet, serve and federate --spin read: --fleet,
/// --hosts, --threads, --tenants, --machine and --seed.
/// `hosts` and `tenants` are the defaults; see fleet_for for `default_fleet`.
fleet::FleetOptions fleet_options_for(const util::CliArgs& args,
                                      std::size_t hosts, std::size_t tenants,
                                      const std::string& default_fleet = "") {
  fleet::FleetOptions options;
  options.fleet_per_host = fleet_for(args, default_fleet);
  options.hosts = args.get_unsigned<std::size_t>("hosts", hosts);
  options.threads = args.get_unsigned<std::size_t>("threads", 2);
  options.tenants = args.get_unsigned<std::size_t>("tenants", tenants);
  options.spec = machine_for(args);
  options.seed = args.get_unsigned<std::uint64_t>("seed", 1);
  return options;
}

/// --trace arms the global tracer (once training is done, so the offline
/// campaign stays out of the ring); --trace-out also arms it and names the
/// file the ring is dumped to at exit.
struct TraceRequest {
  bool armed = false;
  std::string out;
};

TraceRequest trace_request_for(const util::CliArgs& args) {
  TraceRequest trace;
  trace.out = path_for(args, "trace-out");
  trace.armed = args.get_flag("trace") || !trace.out.empty();
  return trace;
}

void dump_trace(const TraceRequest& trace) {
  if (trace.out.empty()) return;
  const obs::Tracer& tracer = obs::Tracer::global();
  tracer.write_chrome_jsonl(trace.out);
  std::printf("trace: %zu spans (%llu overwritten) written to %s\n",
              tracer.size(),
              static_cast<unsigned long long>(tracer.dropped()),
              trace.out.c_str());
}

/// Boots the fleet under a SPEC-like mix and returns (machine, vm ids).
std::vector<sim::VmId> boot_fleet(sim::PhysicalMachine& machine,
                                  const std::vector<common::VmConfig>& fleet,
                                  std::uint64_t seed) {
  const auto benchmarks = wl::spec_subset();
  std::vector<sim::VmId> ids;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto id = machine.hypervisor().create_vm(
        fleet[i],
        wl::make_spec_workload(benchmarks[(seed + i) % benchmarks.size()],
                               seed * 31 + i));
    machine.hypervisor().start_vm(id);
    ids.push_back(id);
  }
  return ids;
}

int cmd_collect(const util::CliArgs& args) {
  const auto fleet = fleet_for(args);
  core::CollectionOptions options;
  options.duration_s = args.get_double("duration", 300.0);
  options.seed = args.get_unsigned<std::uint64_t>("seed", 1);
  const sim::MachineSpec spec = machine_for(args);
  const std::string out = args.require("out");
  args.reject_unread();

  const auto dataset = core::collect_offline_dataset(spec, fleet, options);
  core::save_table(dataset.table, out);
  std::printf("collected %zu samples over %zu VHC combinations -> %s\n",
              dataset.table.total_samples(), dataset.table.combos().size(),
              out.c_str());
  return 0;
}

int cmd_train(const util::CliArgs& args) {
  const std::string table_path = args.require("table");
  const double ridge = args.get_double("ridge", 1e-6);
  const std::string out = args.require("out");
  args.reject_unread();

  const core::VscTable table = core::load_table(table_path);
  const auto approx = core::VhcLinearApprox::fit(table, ridge);
  core::save_approximation(approx, out);
  std::printf("fitted %zu combinations from %zu samples -> %s\n",
              approx.fitted_combos().size(), table.total_samples(),
              out.c_str());
  return 0;
}

int cmd_meter(const util::CliArgs& args, bool billing) {
  const auto fleet = fleet_for(args);
  const std::string approx_path = args.require("approx");
  const sim::MachineSpec spec = machine_for(args);
  const auto seed = args.get_unsigned<std::uint64_t>("seed", 1);
  const std::string csv_path = path_for(args, "csv");
  const std::uint64_t ticks = args.get_ticks("duration", 60.0);
  // Only the bill reads the idle policy and the tariff.
  core::IdleAttribution policy = core::IdleAttribution::kNone;
  double tariff = 0.0;
  if (billing) {
    const auto policy_name = args.get("idle-policy", "none");
    if (policy_name == "equal") policy = core::IdleAttribution::kEqualShare;
    else if (policy_name == "proportional")
      policy = core::IdleAttribution::kProportional;
    else if (policy_name != "none")
      throw std::invalid_argument("unknown --idle-policy '" + policy_name +
                                  "'");
    tariff = args.get_double("tariff", 0.10);
  }
  args.reject_unread();

  const auto approx = core::load_approximation(approx_path);
  const core::VhcUniverse universe = core::VhcUniverse::from_fleet(fleet);
  core::ShapleyVhcEstimator estimator(universe, approx);

  sim::PhysicalMachine machine(spec, seed);
  const auto ids = boot_fleet(machine, fleet, seed);

  std::unique_ptr<util::CsvWriter> csv;
  if (!csv_path.empty()) {
    std::vector<std::string> columns = {"t", "measured_adjusted"};
    for (const auto id : ids) columns.push_back("vm" + std::to_string(id));
    csv = std::make_unique<util::CsvWriter>(csv_path, columns);
  }

  core::EnergyAccountant accountant(policy);
  core::MeteringLoop loop(machine, estimator, 1.0, &accountant);

  for (std::uint64_t tick = 1; tick <= ticks; ++tick) {
    const auto t = static_cast<double>(tick);
    const core::MeteringSample sample = loop.step();
    if (!billing) {
      std::printf("t=%6.0f adj=%7.2fW ", t, sample.adjusted_power_w);
      for (std::size_t i = 0; i < sample.phi.size(); ++i)
        std::printf(" vm%u=%6.2fW", sample.vms[i].vm_id, sample.phi[i]);
      std::printf("\n");
    }
    if (csv) {
      std::vector<double> row = {t, sample.adjusted_power_w};
      row.insert(row.end(), sample.phi.begin(), sample.phi.end());
      csv->write_row(row);
    }
  }

  if (billing) {
    util::TablePrinter table({"VM", "type", "energy (kWh)", "cost (USD)"});
    for (std::size_t i = 0; i < ids.size(); ++i) {
      table.add_row({"vm" + std::to_string(ids[i]), fleet[i].type_name,
                     util::TablePrinter::num(
                         common::joules_to_kwh(accountant.energy_j(ids[i])), 6),
                     util::TablePrinter::num(
                         accountant.bill_usd(ids[i], tariff), 6)});
    }
    table.print();
    std::printf("idle attribution: %s; tariff $%.4f/kWh; horizon %llu s\n",
                to_string(accountant.policy()), tariff,
                static_cast<unsigned long long>(ticks));
  }
  return 0;
}

int cmd_fleet(const util::CliArgs& args) {
  fleet::FleetOptions options = fleet_options_for(args, 4, 3);
  options.max_retries = args.get_unsigned<std::uint32_t>("max-retries", 3);
  if (args.has("inject-faults"))
    options.faults = fleet::parse_fault_spec(args.require("inject-faults"));
  options.validate();  // fail on bad knobs before the offline campaign runs
  const std::uint64_t ticks = args.get_ticks("duration", 60.0);
  core::CollectionOptions collect;
  collect.duration_s = args.get_double("collect-duration", 120.0);
  collect.seed = options.seed;
  const std::string checkpoint = args.get("checkpoint");
  const double tariff = args.get_double("tariff", 0.10);
  const std::string metrics_path = path_for(args, "metrics");
  const TraceRequest trace = trace_request_for(args);
  args.reject_unread();

  // The offline campaign is shared across hosts (identical machine type, so
  // the artifacts are per type — exactly as in examples/cluster_billing).
  std::printf("offline: training the shared host profile (%.0f s)...\n",
              collect.duration_s);
  const auto dataset =
      core::collect_offline_dataset(options.spec, options.fleet_per_host,
                                    collect);

  fleet::FleetEngine engine(options, dataset);
  if (!checkpoint.empty() && std::filesystem::exists(checkpoint)) {
    engine.restore_checkpoint(checkpoint);
    std::printf("resumed from checkpoint %s at tick %llu\n",
                checkpoint.c_str(),
                static_cast<unsigned long long>(engine.tick()));
  }

  if (trace.armed) obs::Tracer::global().set_enabled(true);
  std::printf("online: metering %zu hosts x %zu VMs on %zu threads for %llu "
              "ticks\n",
              options.hosts, options.fleet_per_host.size(), options.threads,
              static_cast<unsigned long long>(ticks));
  engine.run(ticks);

  const auto& ledger = engine.tenant_ledger();
  util::TablePrinter table({"tenant", "VMs", "energy (kWh)", "cost (USD)"});
  for (const core::TenantId tenant : ledger.tenants()) {
    std::size_t vms = 0;
    for (std::size_t h = 0; h < options.hosts; ++h)
      for (std::size_t v = 0; v < options.fleet_per_host.size(); ++v)
        if (v % options.tenants + 1 == tenant) ++vms;
    const double kwh = common::joules_to_kwh(ledger.tenant_energy_j(tenant));
    table.add_row({std::to_string(tenant), std::to_string(vms),
                   util::TablePrinter::num(kwh, 6),
                   util::TablePrinter::num(kwh * tariff, 6)});
  }
  table.print();
  std::printf("ticks %llu | samples %llu | drops %llu | retries %llu | "
              "degraded %llu | stale %llu | unattributed %.3f J\n",
              static_cast<unsigned long long>(engine.tick()),
              static_cast<unsigned long long>(engine.samples_processed()),
              static_cast<unsigned long long>(engine.samples_dropped()),
              static_cast<unsigned long long>(engine.retries()),
              static_cast<unsigned long long>(engine.degraded_ticks()),
              static_cast<unsigned long long>(engine.stale_ticks()),
              ledger.unattributed_energy_j());

  if (!checkpoint.empty()) {
    engine.save_checkpoint(checkpoint);
    std::printf("checkpoint written to %s\n", checkpoint.c_str());
  }
  if (!metrics_path.empty()) {
    engine.metrics().write_prometheus(metrics_path);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  dump_trace(trace);
  return 0;
}

core::TouRateSchedule tou_for(const util::CliArgs& args) {
  core::TouRateSchedule tou;
  tou.offpeak_usd_per_kwh = args.get_double("offpeak-rate", 0.10);
  tou.peak_usd_per_kwh =
      args.get_double("peak-rate", tou.offpeak_usd_per_kwh);
  tou.seconds_per_hour = args.get_double("seconds-per-hour", 3600.0);
  const std::string hours = args.get("peak-hours", "17-21");
  // Each hour is its whole token: "17x-21" is not 17-21.
  const auto hour = [&](std::string_view text) {
    double value = 0.0;
    const char* const end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || stop != end)
      throw std::invalid_argument(
          "--peak-hours expects H0-H1, e.g. 17-21, got '" + hours + "'");
    return value;
  };
  const std::string_view range = hours;
  const auto dash = range.find('-');
  tou.peak_start_hour = hour(range.substr(0, dash));
  tou.peak_end_hour = hour(dash == range.npos ? "" : range.substr(dash + 1));
  tou.validate();
  return tou;
}

int cmd_serve(const util::CliArgs& args) {
  const fleet::FleetOptions options = fleet_options_for(args, 4, 3);
  options.validate();

  serve::QueryEngineOptions query_options;
  query_options.tou = tou_for(args);
  query_options.cache_capacity = args.get_unsigned<std::size_t>("cache", 1024);
  query_options.cache_shards =
      args.get_unsigned<std::size_t>("cache-shards", 8);
  query_options.coalesce = args.get_unsigned<bool>("coalesce", true);  // 0|1

  serve::ServerOptions server_options;
  server_options.port = args.get_unsigned<std::uint16_t>("port", 7077);
  server_options.workers = args.get_unsigned<std::size_t>("workers", 2);
  server_options.queue_capacity =
      args.get_unsigned<std::size_t>("request-queue", 64);
  server_options.tokens_per_s = args.get_double("tokens-per-s", 10000.0);
  server_options.token_burst = args.get_double("burst", 1000.0);
  server_options.out_of_order = !args.get_flag("ordered");
  server_options.validate();
  const double slow_ms = args.get_double("slow-ms", 50.0);
  const double slo_ms = args.get_double("slo-ms", slow_ms);
  const double slo_target = args.get_double("slo-target", 0.99);
  const std::uint64_t ticks = args.get_ticks("duration", 300.0);
  core::CollectionOptions collect;
  collect.duration_s = args.get_double("collect-duration", 120.0);
  collect.seed = options.seed;
  const auto retention = args.get_unsigned<std::size_t>("retention", 4096);
  const bool durable = args.has("ledger");
  ledger::LedgerOptions ledger_options;
  if (durable) {
    ledger_options.dir = args.require("ledger");
    ledger_options.segment_max_records =
        args.get_unsigned<std::uint64_t>("segment-records", 4096);
  }
  const std::string checkpoint = args.get("checkpoint");
  const double linger = args.get_double("linger", 0.0);
  const std::string metrics_path = path_for(args, "metrics");
  const TraceRequest trace = trace_request_for(args);
  args.reject_unread();

  std::printf("offline: training the shared host profile (%.0f s)...\n",
              collect.duration_s);
  const auto dataset = core::collect_offline_dataset(
      options.spec, options.fleet_per_host, collect);

  fleet::FleetEngine engine(options, dataset);
  serve::SnapshotStore store(retention);
  store.attach(engine);

  std::unique_ptr<ledger::Ledger> log;
  if (durable) {
    ledger_options.metrics = &engine.metrics();
    log = std::make_unique<ledger::Ledger>(ledger_options);
    const ledger::RecoveryReport recovered = log->recovery();
    if (recovered.records > 0 || recovered.torn_records > 0)
      std::printf("ledger: recovered %llu records from %llu segments "
                  "(%llu torn, %llu bytes truncated)\n",
                  static_cast<unsigned long long>(recovered.records),
                  static_cast<unsigned long long>(recovered.segments),
                  static_cast<unsigned long long>(recovered.torn_records),
                  static_cast<unsigned long long>(recovered.truncated_bytes));
    store.set_ledger(log.get());
  }

  if (!checkpoint.empty() && std::filesystem::exists(checkpoint)) {
    engine.restore_checkpoint(checkpoint);
    std::printf("resumed from checkpoint %s at tick %llu\n",
                checkpoint.c_str(),
                static_cast<unsigned long long>(engine.tick()));
    if (log) {
      // The ledger may hold epochs past the checkpointed tick (a crash after
      // the checkpoint was written); rewind it, then replay its tail into
      // the ring so historical window queries answer byte-identically.
      log->truncate_after(engine.tick());
      const std::size_t replayed = store.restore_from_ledger(*log);
      std::printf("ledger: replayed %zu snapshots into the retention ring\n",
                  replayed);
      if (const auto head = store.latest())
        engine.invariants().observe_ledger_replay(
            head->epoch, head->total_energy_j,
            engine.tenant_ledger().total_energy_j());
    }
  }

  query_options.metrics = &engine.metrics();
  serve::QueryEngine queries(store, query_options);

  // Per-query stage profiling + SLO health, always on for a served fleet:
  // the HEALTH scrape, the slow-query log, and the vmpower_serve_stage_* /
  // vmpower_slo_* families all hang off this profiler.
  obs::SloOptions slo_options;
  slo_options.latency_threshold_s = slo_ms / 1000.0;
  slo_options.latency_objective = slo_target;
  slo_options.metrics = &engine.metrics();
  obs::SloTracker slo(slo_options);
  serve::ServeProfilerOptions profiler_options;
  profiler_options.slow_threshold_s = slow_ms / 1000.0;
  profiler_options.metrics = &engine.metrics();
  profiler_options.slo = &slo;
  serve::ServeProfiler profiler(profiler_options);
  server_options.profiler = &profiler;

  serve::Server server(queries, engine.metrics(), server_options);

  if (trace.armed) obs::Tracer::global().set_enabled(true);
  // Register the exactly-once accounting series up front so scrapes taken
  // while the server is live already carry them; re-observed at drain below.
  engine.invariants().observe_serve_accounting(0, 0, 0, 0);
  std::printf("serving on 127.0.0.1:%u while metering %zu hosts for %llu "
              "ticks...\n",
              server.port(), options.hosts,
              static_cast<unsigned long long>(ticks));
  engine.run(ticks);

  if (linger > 0.0) {
    std::printf("metering done; serving for %.0f more seconds\n", linger);
    std::this_thread::sleep_for(std::chrono::duration<double>(linger));
  }

  engine.invariants().observe_serve_accounting(
      store.published(), server.admitted(), server.answered(),
      server.outstanding());
  std::printf("queries: cache hits %llu misses %llu | snapshots %llu\n",
              static_cast<unsigned long long>(queries.cache_hits()),
              static_cast<unsigned long long>(queries.cache_misses()),
              static_cast<unsigned long long>(store.published()));
  if (log) {
    const ledger::Stats stats = log->stats();
    std::printf("ledger: %llu records in %llu segments (%llu cold), epochs "
                "[%llu, %llu]\n",
                static_cast<unsigned long long>(stats.records),
                static_cast<unsigned long long>(stats.segments),
                static_cast<unsigned long long>(stats.cold_segments),
                static_cast<unsigned long long>(stats.oldest_epoch),
                static_cast<unsigned long long>(stats.tail_epoch));
  }
  if (!checkpoint.empty()) {
    engine.save_checkpoint(checkpoint);
    std::printf("checkpoint written to %s\n", checkpoint.c_str());
  }
  if (!metrics_path.empty()) {
    profiler.publish();  // fold the latest sketch quantiles into the gauges.
    engine.metrics().write_prometheus(metrics_path);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  server.stop();
  dump_trace(trace);
  return 0;
}

int cmd_query(const util::CliArgs& args) {
  const auto port = args.require_unsigned<std::uint16_t>("port");
  const std::string proto = args.get("proto", "binary");
  if (proto != "binary" && proto != "text")
    throw std::invalid_argument("query: --proto must be binary or text");
  const bool with_id = args.has("id");
  const auto request_id = args.get_unsigned<std::uint64_t>("id", 0);
  const auto timeout_ms = args.get_unsigned<std::uint32_t>("timeout-ms", 0);
  const auto& positionals = args.positionals();
  std::string line;
  for (std::size_t i = 1; i < positionals.size(); ++i) {
    if (i > 1) line += ' ';
    line += positionals[i];
  }
  if (line.empty())
    throw std::invalid_argument("query: missing query (try: stats)");
  args.reject_unread();

  serve::Client client(port);
  if (timeout_ms > 0)
    client.set_timeout(std::chrono::milliseconds(timeout_ms));
  std::string response;
  try {
    if (proto == "text") {
      if (with_id) line.insert(0, "#" + std::to_string(request_id) + " ");
      response = client.query_text(line);
    } else {
      const auto request = serve::parse_request_text(line);
      if (!request)
        throw std::invalid_argument("query: unparseable query '" + line + "'");
      response = serve::format_response_text(
          with_id ? client.query_with_id(*request, request_id)
                  : client.query(*request));
    }
  } catch (const serve::TimeoutError&) {
    std::fprintf(stderr, "query: no response within %u ms\n", timeout_ms);
    return 3;
  }
  std::printf("%s\n", response.c_str());
  return 0;
}

int cmd_federate(const util::CliArgs& args) {
  federate::FrontendOptions fed_options;
  fed_options.deadline = std::chrono::milliseconds(
      args.get_unsigned<std::uint32_t>("deadline-ms", 250));
  fed_options.retries = args.get_unsigned<std::uint32_t>("retries", 1);
  fed_options.backoff = std::chrono::milliseconds(
      args.get_unsigned<std::uint32_t>("backoff-ms", 10));
  fed_options.hedge = args.get_flag("hedge");
  fed_options.hedge_delay = std::chrono::milliseconds(
      args.get_unsigned<std::uint32_t>("hedge-delay-ms", 50));
  fed_options.max_epoch_skew = args.get_unsigned<std::uint64_t>("max-skew", 1);
  const std::string skew = args.get("skew", "accept");
  if (skew == "reject")
    fed_options.skew_policy = federate::SkewPolicy::kReject;
  else if (skew != "accept")
    throw std::invalid_argument("federate: --skew must be accept or reject");
  fed_options.workers = args.get_unsigned<std::size_t>("fed-workers", 0);
  fed_options.max_idle_per_endpoint =
      args.get_unsigned<std::size_t>("fed-pool-idle", 2);
  fed_options.validate();

  serve::ServerOptions server_options;
  server_options.port = args.get_unsigned<std::uint16_t>("port", 7080);
  server_options.workers = args.get_unsigned<std::size_t>("workers", 2);
  server_options.validate();

  fleet::Metrics metrics;
  obs::InvariantMonitor monitor(metrics);
  fed_options.metrics = &metrics;
  fed_options.monitor = &monitor;

  // The shard tier: either a map of externally running `vmpower serve`
  // shards, or --spin N in-process fleets metered right here. Only the
  // chosen tier's flags are read.
  federate::ShardMap map;
  std::size_t spin = 0;
  fleet::FleetOptions options;
  std::uint64_t ticks = 0;
  core::CollectionOptions collect;
  if (args.has("shards")) {
    map = federate::ShardMap::parse(args.require("shards"));
  } else {
    spin = args.get_unsigned<std::size_t>("spin", 3);
    if (spin == 0)
      throw std::invalid_argument("federate: --spin needs at least 1 shard");
    options = fleet_options_for(args, 2, 2, "VM1,VM2");
    options.validate();
    ticks = args.get_ticks("duration", 60.0);
    collect.duration_s = args.get_double("collect-duration", 30.0);
    collect.seed = options.seed;
  }

  const double slow_ms = args.get_double("slow-ms", 150.0);
  obs::SloOptions slo_options;
  slo_options.latency_threshold_s =
      args.get_double("slo-ms", slow_ms) / 1000.0;
  slo_options.latency_objective = args.get_double("slo-target", 0.99);
  // One query and exit, or serve for --linger seconds.
  std::optional<serve::Request> request;
  double linger = 0.0;
  if (args.has("query")) {
    const std::string query = args.require("query");
    request = serve::parse_request_text(query);
    if (!request)
      throw std::invalid_argument("federate: unparseable query '" + query +
                                  "'");
  } else {
    linger = args.get_double("linger", 60.0);
  }
  const std::string metrics_path = path_for(args, "metrics");
  const TraceRequest trace = trace_request_for(args);
  args.reject_unread();

  std::vector<std::unique_ptr<federate::InProcessShard>> spun;
  if (spin > 0) {
    std::printf("offline: training the shared host profile (%.0f s)...\n",
                collect.duration_s);
    const auto dataset = core::collect_offline_dataset(
        options.spec, options.fleet_per_host, collect);

    std::vector<federate::FleetShard> shards;
    for (std::size_t i = 0; i < spin; ++i) {
      federate::InProcessShardOptions shard_options;
      shard_options.fleet = static_cast<std::uint32_t>(i + 1);
      auto shard =
          std::make_unique<federate::InProcessShard>(shard_options);
      fleet::FleetOptions per_shard = options;
      per_shard.seed = options.seed + i;  // independent trajectories.
      fleet::FleetEngine engine(per_shard, dataset);
      shard->store().attach(engine);
      engine.run(ticks);
      std::printf("shard %zu: fleet %u on 127.0.0.1:%u (%llu ticks)\n", i + 1,
                  shard->fleet(), shard->port(),
                  static_cast<unsigned long long>(ticks));
      shards.push_back(federate::FleetShard{shard->fleet(), {shard->port()}});
      spun.push_back(std::move(shard));
    }
    map = federate::ShardMap(std::move(shards));
  }

  federate::FederationFrontend frontend(std::move(map), fed_options);
  if (trace.armed) obs::Tracer::global().set_enabled(true);

  // Federated per-query profiling: every stage of a federated query — the
  // whole scatter-gather inside "execute" — lands in the same HEALTH /
  // vmpower_serve_stage_* machinery a single fleet exports.
  slo_options.metrics = &metrics;
  obs::SloTracker slo(slo_options);
  serve::ServeProfilerOptions profiler_options;
  profiler_options.slow_threshold_s = slow_ms / 1000.0;
  profiler_options.metrics = &metrics;
  profiler_options.slo = &slo;
  serve::ServeProfiler profiler(profiler_options);

  if (request) {
    std::printf("%s\n",
                serve::format_response_text(frontend.execute(*request))
                    .c_str());
  } else {
    server_options.profiler = &profiler;
    serve::Server server(frontend, metrics, server_options);
    std::printf("federating %zu shards on 127.0.0.1:%u for %.0f s...\n",
                frontend.map().size(), server.port(), linger);
    std::this_thread::sleep_for(std::chrono::duration<double>(linger));
    server.stop();
  }

  if (!metrics_path.empty()) {
    profiler.publish();
    metrics.write_prometheus(metrics_path);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  dump_trace(trace);
  for (auto& shard : spun) shard->stop();
  return 0;
}

int cmd_trace(const util::CliArgs& args) {
  fleet::FleetOptions options;
  options.fleet_per_host = fleet_for(args, "VM1,VM2");
  options.hosts = args.get_unsigned<std::size_t>("hosts", 2);
  options.threads = 2;
  options.tenants = 2;
  options.spec = machine_for(args);
  options.seed = args.get_unsigned<std::uint64_t>("seed", 1);
  options.validate();
  const std::uint64_t ticks = args.get_ticks("duration", 16.0);
  core::CollectionOptions collect;
  collect.duration_s = args.get_double("collect-duration", 30.0);
  collect.seed = options.seed;
  const std::string out = path_for(args, "out");
  args.reject_unread();

#if !VMPOWER_TRACING_COMPILED
  std::fprintf(stderr,
               "vmpower trace: built with -DVMPOWER_TRACING=OFF; the span "
               "macros are compiled out and the ring will stay empty\n");
#endif
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);
  tracer.clear();

  const auto dataset = core::collect_offline_dataset(
      options.spec, options.fleet_per_host, collect);

  fleet::FleetEngine engine(options, dataset);
  serve::SnapshotStore store(1024);
  store.attach(engine);
  serve::QueryEngineOptions query_options;
  query_options.metrics = &engine.metrics();
  serve::QueryEngine queries(store, query_options);
  serve::Dispatcher dispatcher(queries, &engine.metrics());

  engine.run(ticks);

  // Exercise the serve path in-process so one dump spans all three layers
  // (core.estimate / fleet.tick / serve.parse and friends).
  const auto stats = serve::parse_request_text("stats");
  (void)dispatcher.handle_binary(serve::encode_request(*stats), 1001);
  (void)dispatcher.handle_text("#1002 fleet-power");
  (void)dispatcher.handle_text("tenant-power 1");

  if (!out.empty()) {
    tracer.write_chrome_jsonl(out);
    std::printf("trace: %zu spans over %llu ticks written to %s\n",
                tracer.size(), static_cast<unsigned long long>(ticks),
                out.c_str());
  } else {
    std::fputs(tracer.to_chrome_jsonl().c_str(), stdout);
  }
  return 0;
}

int cmd_scrape(const util::CliArgs& args) {
  const auto port = args.require_unsigned<std::uint16_t>("port");
  const std::string what = args.get("what", "metrics");
  std::string command;
  if (what == "metrics") command = "METRICS";
  else if (what == "trace") command = "TRACE";
  else if (what == "health") command = "HEALTH";
  else
    throw std::invalid_argument(
        "scrape: --what must be metrics, trace, or health");
  const std::string out = path_for(args, "out");
  args.reject_unread();

  serve::Client client(port);
  const std::string payload = client.scrape(command);
  if (!out.empty()) {
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    if (!file || !(file << payload).flush())
      throw std::runtime_error("scrape: cannot write " + out);
    std::printf("%s scrape (%zu bytes) written to %s\n", what.c_str(),
                payload.size(), out.c_str());
  } else {
    std::fputs(payload.c_str(), stdout);
  }
  return 0;
}

int cmd_slo(const util::CliArgs& args) {
  const auto port = args.require_unsigned<std::uint16_t>("port");
  const bool full = args.get_flag("full");
  args.reject_unread();

  serve::Client client(port);
  const std::string payload = client.scrape("HEALTH");
  if (payload.rfind("health profiler=off", 0) == 0) {
    std::fprintf(stderr,
                 "slo: the server on port %u runs without a profiler\n", port);
    return 1;
  }
  // Default view: the health header and the SLO cells. --full adds the
  // per-stage quantiles and the slow-query log (the whole HEALTH payload).
  if (full) {
    std::fputs(payload.c_str(), stdout);
    return 0;
  }
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t end = payload.find('\n', pos);
    if (end == std::string::npos) end = payload.size();
    const std::string line = payload.substr(pos, end - pos);
    if (line.rfind("health ", 0) == 0 || line.rfind("slo ", 0) == 0)
      std::printf("%s\n", line.c_str());
    pos = end + 1;
  }
  return 0;
}

int cmd_ledger(const util::CliArgs& args) {
  const std::string verb = args.positional(1);
  if (verb.empty())
    throw std::invalid_argument(
        "ledger: missing verb (inspect, verify, or compact)");
  if (verb != "inspect" && verb != "verify" && verb != "compact")
    throw std::invalid_argument("ledger: unknown verb '" + verb +
                                "' (expected inspect, verify, or compact)");
  const std::filesystem::path dir = args.require("dir");
  ledger::LedgerOptions options;
  options.dir = dir;
  // Only compact builds a sparse index, so only it reads --index-stride.
  if (verb == "compact")
    options.index_stride =
        args.get_unsigned<std::uint64_t>("index-stride", 64);
  options.auto_compact = false;  // inspect/compact decide explicitly below.
  options.background_compaction = false;
  args.reject_unread();

  if (verb == "verify") {
    const ledger::VerifyReport report = ledger::verify_dir(dir);
    std::printf("%s: %llu segments, %llu records, %llu torn, %llu epoch "
                "gaps -> %s\n",
                dir.string().c_str(),
                static_cast<unsigned long long>(report.segments),
                static_cast<unsigned long long>(report.records),
                static_cast<unsigned long long>(report.torn_records),
                static_cast<unsigned long long>(report.epoch_gaps),
                report.clean() ? "clean" : "DAMAGED");
    return report.clean() ? 0 : 1;
  }

  ledger::Ledger log(options);

  if (verb == "compact") {
    const std::size_t compacted = log.compact_all();
    std::printf("%s: compacted %zu sealed segments\n", dir.string().c_str(),
                compacted);
    return 0;
  }

  const ledger::Stats stats = log.stats();
  const ledger::RecoveryReport recovered = log.recovery();
  util::TablePrinter table({"segment", "kind", "epochs", "records", "bytes"});
  for (const ledger::SegmentInfo& segment : log.segments())
    table.add_row({segment.file,
                   segment.cold ? "cold" : segment.active ? "active" : "sealed",
                   std::to_string(segment.first_epoch) + "-" +
                       std::to_string(segment.last_epoch),
                   std::to_string(segment.records),
                   std::to_string(segment.bytes)});
  table.print();
  std::printf("extent: epochs [%llu, %llu], time [%.1f s, %.1f s], %llu "
              "records\n",
              static_cast<unsigned long long>(stats.oldest_epoch),
              static_cast<unsigned long long>(stats.tail_epoch),
              stats.oldest_time_s, stats.tail_time_s,
              static_cast<unsigned long long>(stats.records));
  std::printf("recovery: %llu torn records, %llu bytes truncated, %llu cold "
              "footers rescanned\n",
              static_cast<unsigned long long>(recovered.torn_records),
              static_cast<unsigned long long>(recovered.truncated_bytes),
              static_cast<unsigned long long>(recovered.rescanned_cold));
  return 0;
}

int cmd_info(const util::CliArgs& args) {
  const std::string approx_path = args.require("approx");
  args.reject_unread();

  const auto approx = core::load_approximation(approx_path);
  std::printf("VHC linear approximation: %zu VHCs, %zu fitted combinations\n",
              approx.num_vhcs(), approx.fitted_combos().size());
  for (const auto& model : approx.export_models()) {
    std::printf("combo %u (rmse %.3f W, %zu samples): cpu weights [",
                model.combo, model.rmse, model.sample_count);
    for (std::size_t j = 0; j < approx.num_vhcs(); ++j)
      std::printf("%s%.2f", j ? ", " : "",
                  model.weights[j * common::kNumComponents]);
    std::printf("]\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliArgs args(argc, argv);
    const std::string command = args.command();
    if (command == "collect") return cmd_collect(args);
    if (command == "train") return cmd_train(args);
    if (command == "meter") return cmd_meter(args, /*billing=*/false);
    if (command == "bill") return cmd_meter(args, /*billing=*/true);
    if (command == "info") return cmd_info(args);
    if (command == "fleet") return cmd_fleet(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "query") return cmd_query(args);
    if (command == "federate") return cmd_federate(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "scrape") return cmd_scrape(args);
    if (command == "slo") return cmd_slo(args);
    if (command == "ledger") return cmd_ledger(args);
    std::fputs(kUsage, command.empty() ? stdout : stderr);
    return command.empty() ? 0 : 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vmpower: %s\n", error.what());
    return 1;
  }
}
