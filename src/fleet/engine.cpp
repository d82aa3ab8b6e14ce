#include "fleet/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/serialization.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace vmp::fleet {

namespace {

constexpr const char* kCheckpointMagic = "vmpower-fleet-ckpt v1";

std::uint64_t header_u64(const std::string& token, const std::string& key) {
  return core::header_count("fleet checkpoint", token, key);
}

}  // namespace

void FleetOptions::validate() const {
  if (hosts == 0)
    throw std::invalid_argument("FleetOptions: need at least one host");
  if (threads == 0)
    throw std::invalid_argument("FleetOptions: need at least one thread");
  if (tenants == 0)
    throw std::invalid_argument("FleetOptions: need at least one tenant");
  if (fleet_per_host.empty())
    throw std::invalid_argument("FleetOptions: fleet_per_host is empty");
  // Retry k sleeps retry_backoff_base * (1u << k) for k < max_retries; the
  // shift is undefined from 32 on.
  if (max_retries > 32)
    throw std::invalid_argument("FleetOptions: max_retries must be <= 32");
  faults.validate();
}

FleetEngine::Instruments::Instruments(Metrics& metrics, std::size_t hosts)
    : step_latency(metrics.histogram("vmpower_fleet_tick_latency_seconds",
                                     "Wall time of one host metering step")),
      estimator_latency(metrics.histogram(
          "vmpower_fleet_estimator_latency_seconds",
          "Wall time of the Shapley estimator call alone")),
      ticks(metrics.counter("vmpower_fleet_ticks_total",
                            "Fleet-wide sampling periods completed")),
      samples(metrics.counter("vmpower_fleet_samples_processed_total",
                              "Host tick results aggregated into the ledgers")),
      retries(metrics.counter("vmpower_fleet_meter_retries_total",
                              "Meter read retry attempts")),
      degraded_ticks(metrics.counter("vmpower_fleet_degraded_ticks_total",
                                     "Host ticks served from a carried estimate")),
      stale_ticks(
          metrics.counter("vmpower_fleet_stale_ticks_total",
                          "Host ticks estimated from previous-tick telemetry")) {
  estimate_error_w.reserve(hosts);
  degraded.reserve(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    const std::string host = std::to_string(h);
    estimate_error_w.push_back(&metrics.gauge(
        obs::labeled("vmpower_fleet_host_estimate_error_w", {{"host", host}}),
        "Absolute gap between the host's allocated and measured power"));
    degraded.push_back(&metrics.gauge(
        obs::labeled("vmpower_fleet_host_degraded", {{"host", host}}),
        "1 when the host's last tick was served from a carried estimate"));
  }
}

FleetEngine::FleetEngine(FleetOptions options,
                         const core::OfflineDataset& dataset)
    : options_((options.validate(), std::move(options))),
      injector_(options_.faults, options_.seed), results_(options_.hosts),
      pool_(options_.threads > 1
                ? std::make_unique<util::ThreadPool>(options_.threads - 1)
                : nullptr),
      monitor_(metrics_), instruments_(metrics_, options_.hosts) {
  const HostAgentOptions agent_options{options_.max_retries,
                                       options_.retry_backoff_base};
  agents_.reserve(options_.hosts);
  host_ledgers_.reserve(options_.hosts);
  for (std::size_t h = 0; h < options_.hosts; ++h) {
    agents_.push_back(std::make_unique<HostAgent>(
        static_cast<std::uint32_t>(h), options_.spec, options_.fleet_per_host,
        dataset.universe, dataset.approximation, options_.seed + h,
        agent_options));
    // Host ledgers bill φ alone: no share of the idle floor goes to a VM.
    host_ledgers_.push_back(
        std::make_unique<core::EnergyAccountant>(core::IdleAttribution::kNone));
    // VM v of every host belongs to tenant v % tenants + 1 — the fleet-wide
    // tenancy layout the CLI and tests share.
    const auto& ids = agents_.back()->vm_ids();
    for (std::size_t v = 0; v < ids.size(); ++v)
      tenants_.bind(static_cast<core::HostId>(h), ids[v],
                    static_cast<core::TenantId>(v % options_.tenants + 1));
  }
}

void FleetEngine::aggregate(const HostTickResult& result) {
  ++processed_;
  if (result.degraded) ++degraded_;
  if (result.stale) ++stale_;
  retries_ += result.retries;

  if (!result.phi.empty()) {
    host_ledgers_[result.host]->add_sample(result.vms, result.phi,
                                           result.idle_power_w, kPeriodS);
    tenants_.add_host_sample(static_cast<core::HostId>(result.host),
                             result.vms, result.phi, kPeriodS);
  } else if (result.degraded) {
    VMP_LOG_DEBUG("fleet: host %u tick %llu degraded with no prior estimate",
                  result.host,
                  static_cast<unsigned long long>(result.tick));
  }

  // Observability: the estimate error gauge is the efficiency gap |ΣΦ − P|;
  // zero on fresh ticks (the estimator anchors to the measurement) and the
  // carried estimate's drift on degraded ones.
  double phi_sum = 0.0;
  for (const double p : result.phi) phi_sum += p;
  instruments_.estimate_error_w[result.host]->set(
      std::abs(phi_sum - result.adjusted_power_w));
  instruments_.degraded[result.host]->set(result.degraded ? 1.0 : 0.0);
  instruments_.step_latency.observe(result.step_seconds);
  if (!result.phi.empty() && !result.degraded)
    instruments_.estimator_latency.observe(result.estimate_seconds);
}

void FleetEngine::step_hosts(std::uint64_t now) {
  // Dynamic claiming, not fixed slices: a host asleep in retry backoff holds
  // only its claimer while the other threads keep claiming.
  std::atomic<std::size_t> cursor{0};
  const auto claim = [this, &cursor, now] {
    for (std::size_t h = cursor.fetch_add(1, std::memory_order_relaxed);
         h < agents_.size(); h = cursor.fetch_add(1, std::memory_order_relaxed))
      results_[h] = agents_[h]->sample(now, injector_);
  };
  if (!pool_) {
    claim();
    return;
  }

  // The engine thread claims too, so a worker is woken only when there is a
  // host left for it.
  const std::size_t helpers =
      std::min(pool_->thread_count(), agents_.size() - 1);
  for (std::size_t i = 0; i < helpers; ++i)
    pool_->submit([&claim, now] {
      // Adopt the tick's trace id on the worker thread so the collect /
      // estimate spans group under the same trace as the engine's.
      VMP_TRACE_CONTEXT(now + 1);
      claim();
    });
  try {
    claim();
  } catch (...) {
    pool_->wait_idle();  // the workers still read cursor and claim.
    throw;
  }
  // The tick barrier: once the pool is idle every host wrote its slot.
  pool_->wait_idle();
}

void FleetEngine::run(std::uint64_t ticks) {
  for (std::uint64_t k = 0; k < ticks; ++k) {
    const std::uint64_t now = tick_++;
    // Trace id of everything this tick does, on the engine thread and in the
    // worker tasks alike (tick+1: trace id 0 means "unset").
    VMP_TRACE_CONTEXT(now + 1);
    VMP_TRACE_SPAN("fleet.tick", "fleet");
    const std::uint64_t retries_before = retries_;
    const std::uint64_t degraded_before = degraded_;
    const std::uint64_t stale_before = stale_;

    step_hosts(now);

    // Deterministic roll-up: aggregation order is host order, regardless of
    // completion order — this is what makes thread count invisible in the
    // ledgers.
    {
      VMP_TRACE_SPAN("fleet.aggregate", "fleet");
      for (const HostTickResult& result : results_) aggregate(result);
    }

    // Efficiency invariant, fleet-wide per tick: what the hosts billed (Σφ)
    // against what their meters actually measured. Fault-free this is
    // floating-point noise (the estimator anchors the grand coalition to the
    // measurement); meter faults open a genuine gap because billing carried
    // the last good estimate while the machine kept drawing.
    double residual_w = 0.0;
    for (const HostTickResult& result : results_) {
      double phi_sum = 0.0;
      for (const double p : result.phi) phi_sum += p;
      residual_w += std::abs(phi_sum - result.measured_adjusted_w);
    }
    last_residual_w_ = residual_w;
    monitor_.observe_efficiency(now, residual_w);

    if (observer_) observer_(*this, now, results_);

    instruments_.ticks.inc();
    instruments_.samples.inc(results_.size());
    instruments_.retries.inc(retries_ - retries_before);
    instruments_.degraded_ticks.inc(degraded_ - degraded_before);
    instruments_.stale_ticks.inc(stale_ - stale_before);
  }
}

void FleetEngine::save_checkpoint(const std::filesystem::path& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out)
    throw std::runtime_error("fleet checkpoint: cannot open for write: " +
                             path.string());
  out << kCheckpointMagic << " hosts=" << options_.hosts << " tick=" << tick_
      << " processed=" << processed_ << " degraded=" << degraded_
      << " retries=" << retries_ << " stale=" << stale_
      << " drops=" << samples_dropped() << '\n';
  for (const auto& ledger : host_ledgers_) core::write_accountant(out, *ledger);
  core::write_multi_host(out, tenants_);
  for (const auto& agent : agents_) agent->save_state(out);
  if (!out)
    throw std::runtime_error("fleet checkpoint: write failed: " +
                             path.string());
}

void FleetEngine::restore_checkpoint(const std::filesystem::path& path) {
  if (tick_ != 0)
    throw std::logic_error(
        "FleetEngine::restore_checkpoint: engine already advanced");
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("fleet checkpoint: cannot open for read: " +
                             path.string());
  std::string magic_a, magic_b, hosts_token, tick_token, processed_token,
      degraded_token, retries_token, stale_token, drops_token;
  in >> magic_a >> magic_b >> hosts_token >> tick_token >> processed_token >>
      degraded_token >> retries_token >> stale_token >> drops_token;
  if (magic_a + " " + magic_b != kCheckpointMagic)
    throw std::runtime_error("fleet checkpoint: bad magic in " +
                             path.string());
  if (header_u64(hosts_token, "hosts") != options_.hosts)
    throw std::runtime_error(
        "fleet checkpoint: host count mismatch (checkpointed engine had " +
        hosts_token.substr(6) + " hosts)");
  const std::uint64_t target_tick = header_u64(tick_token, "tick");
  const std::uint64_t processed = header_u64(processed_token, "processed");
  const std::uint64_t degraded = header_u64(degraded_token, "degraded");
  const std::uint64_t retries = header_u64(retries_token, "retries");
  const std::uint64_t stale = header_u64(stale_token, "stale");
  const std::uint64_t dropped = header_u64(drops_token, "drops");

  // Every block parses before any is applied, so a refused checkpoint leaves
  // the engine as fresh as it was.
  std::vector<std::unique_ptr<core::EnergyAccountant>> host_ledgers;
  host_ledgers.reserve(host_ledgers_.size());
  for (std::size_t h = 0; h < host_ledgers_.size(); ++h)
    host_ledgers.push_back(std::make_unique<core::EnergyAccountant>(
        core::read_accountant(in)));
  core::MultiHostAccountant tenants = tenants_;  // keeps the bindings.
  core::read_multi_host(in, tenants);
  std::vector<HostAgent::CarryState> carries;
  carries.reserve(agents_.size());
  for (const auto& agent : agents_) carries.push_back(agent->parse_state(in));

  processed_ = processed;
  degraded_ = degraded;
  retries_ = retries;
  stale_ = stale;
  dropped_base_ = dropped;
  host_ledgers_ = std::move(host_ledgers);
  tenants_ = std::move(tenants);
  for (std::size_t h = 0; h < agents_.size(); ++h)
    agents_[h]->apply_state(std::move(carries[h]));

  // The simulators are deterministic in (seed, tick); replaying the billed
  // interval without accounting re-synchronizes machine state so the next
  // run() continues the exact trajectory — and no joule is billed twice.
  for (std::uint64_t t = 0; t < target_tick; ++t)
    for (const auto& agent : agents_) agent->fast_forward_tick();
  tick_ = target_tick;
  VMP_LOG_INFO("fleet: restored checkpoint %s at tick %llu",
               path.string().c_str(),
               static_cast<unsigned long long>(tick_));
}

}  // namespace vmp::fleet
