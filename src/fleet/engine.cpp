#include "fleet/engine.hpp"

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
  const std::string prefix = key + "=";
  if (token.rfind(prefix, 0) != 0)
    throw std::runtime_error("fleet checkpoint: expected '" + key +
                             "=...' in header, got '" + token + "'");
  return std::stoull(token.substr(prefix.size()));
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
  if (!(period_s > 0.0))
    throw std::invalid_argument("FleetOptions: period must be > 0");
  // Retry k sleeps retry_backoff_base * (1u << k) for k < max_retries; the
  // shift is undefined from 32 on.
  if (max_retries > 32)
    throw std::invalid_argument("FleetOptions: max_retries must be <= 32");
  faults.validate();
}

FleetEngine::FleetEngine(FleetOptions options,
                         const core::OfflineDataset& dataset)
    : options_((options.validate(), std::move(options))),
      injector_(options_.faults, options_.seed), results_(options_.hosts),
      pool_(options_.threads), monitor_(metrics_, options_.invariants) {
  HostAgentOptions agent_options;
  agent_options.period_s = options_.period_s;
  agent_options.max_retries = options_.max_retries;
  agent_options.retry_backoff_base = options_.retry_backoff_base;
  agent_options.dropout_ticks = options_.dropout_ticks;
  agent_options.kernel = options_.kernel;

  agents_.reserve(options_.hosts);
  host_ledgers_.reserve(options_.hosts);
  for (std::size_t h = 0; h < options_.hosts; ++h) {
    agents_.push_back(std::make_unique<HostAgent>(
        static_cast<std::uint32_t>(h), options_.spec, options_.fleet_per_host,
        dataset, options_.seed + h, agent_options));
    host_ledgers_.push_back(
        std::make_unique<core::EnergyAccountant>(options_.idle_policy));
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
                                           result.idle_power_w,
                                           options_.period_s);
    tenants_.add_host_sample(static_cast<core::HostId>(result.host),
                             result.vms, result.phi, options_.period_s);
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
  const std::string host_label = std::to_string(result.host);
  metrics_
      .gauge("vmpower_fleet_host_estimate_error_w{host=\"" + host_label +
                 "\"}",
             "Absolute gap between the host's allocated and measured power")
      .set(std::abs(phi_sum - result.adjusted_power_w));
  metrics_
      .gauge("vmpower_fleet_host_degraded{host=\"" + host_label + "\"}",
             "1 when the host's last tick was served from a carried estimate")
      .set(result.degraded ? 1.0 : 0.0);
  // The hit-rate gauge routes through the invariant monitor so the sample is
  // stamped with the tick epoch it belongs to (and threshold-checked).
  monitor_.observe_table_hit_rate(result.tick, result.host,
                                  result.table_hit_rate);
  metrics_
      .histogram("vmpower_fleet_tick_latency_seconds",
                 "Wall time of one host metering step", 0.0, 0.05, 25)
      .observe(result.step_seconds);
  if (!result.phi.empty() && !result.degraded)
    metrics_
        .histogram("vmpower_fleet_estimator_latency_seconds",
                   "Wall time of the Shapley estimator call alone", 0.0, 0.002,
                   25)
        .observe(result.estimate_seconds);
  if (!result.kernel.empty())
    metrics_
        .counter("vmpower_fleet_kernel_selected_total{kernel=\"" +
                     std::string(result.kernel) + "\"}",
                 "Host ticks dispatched to each Shapley kernel fast path")
        .inc();
  if (!result.sampled_stop.empty()) {
    metrics_
        .counter("vmpower_shapley_sampled_ticks_total",
                 "Host ticks answered by the sampled Shapley tier")
        .inc();
    metrics_
        .counter("vmpower_shapley_sampled_stop_total{reason=\"" +
                     std::string(result.sampled_stop) + "\"}",
                 "Sampled-tier ticks by anytime stop rule")
        .inc();
    metrics_
        .histogram("vmpower_shapley_sampled_halfwidth_w",
                   "Per-tick max per-VM confidence half-width (W)", 0.0, 0.5,
                   25)
        .observe(result.sampled_max_halfwidth_w);
    metrics_
        .histogram("vmpower_shapley_sampled_evals",
                   "Worth evaluations per sampled tick", 0.0, 4096.0, 25)
        .observe(static_cast<double>(result.sampled_evals));
    // The sampled tier's own efficiency check: the pre-normalization gap
    // must sit inside the reported confidence bound.
    monitor_.observe_sampled_ci(result.tick, result.host, result.sampled_gap_w,
                                result.sampled_sum_halfwidth_w,
                                result.sampled_max_halfwidth_w,
                                result.sampled_evals);
  }
}

void FleetEngine::run(std::uint64_t ticks) {
  Counter& ticks_total = metrics_.counter(
      "vmpower_fleet_ticks_total", "Fleet-wide sampling periods completed");
  Counter& samples_total =
      metrics_.counter("vmpower_fleet_samples_processed_total",
                       "Host tick results aggregated into the ledgers");
  Counter& retries_total = metrics_.counter(
      "vmpower_fleet_meter_retries_total", "Meter read retry attempts");
  Counter& degraded_total =
      metrics_.counter("vmpower_fleet_degraded_ticks_total",
                       "Host ticks served from a carried estimate");
  Counter& stale_total =
      metrics_.counter("vmpower_fleet_stale_ticks_total",
                       "Host ticks estimated from previous-tick telemetry");
  // Register the sampled-tier tick counter up front so scrapes expose the
  // family (at zero) even while every host still answers exactly; the
  // labeled counters and invariant gauges appear with the first sampled
  // tick.
  metrics_.counter("vmpower_shapley_sampled_ticks_total",
                   "Host ticks answered by the sampled Shapley tier");

  for (std::uint64_t k = 0; k < ticks; ++k) {
    const std::uint64_t now = tick_++;
    // Trace id of everything this tick does, on the engine thread and in the
    // worker tasks alike (tick+1: trace id 0 means "unset").
    VMP_TRACE_CONTEXT(now + 1);
    VMP_TRACE_SPAN("fleet.tick", "fleet");
    const std::uint64_t retries_before = retries_;
    const std::uint64_t degraded_before = degraded_;
    const std::uint64_t stale_before = stale_;

    for (std::size_t h = 0; h < agents_.size(); ++h) {
      pool_.submit([this, h, now] {
        // Adopt the tick's trace id on the worker thread so the collect /
        // estimate spans group under the same trace as the engine's.
        VMP_TRACE_CONTEXT(now + 1);
        results_[h] = agents_[h]->sample(now, injector_);
      });
    }
    // The tick barrier: once the pool is idle every host wrote its slot.
    pool_.wait_idle();

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

    ticks_total.inc();
    samples_total.inc(results_.size());
    retries_total.inc(retries_ - retries_before);
    degraded_total.inc(degraded_ - degraded_before);
    stale_total.inc(stale_ - stale_before);
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
  processed_ = header_u64(processed_token, "processed");
  degraded_ = header_u64(degraded_token, "degraded");
  retries_ = header_u64(retries_token, "retries");
  stale_ = header_u64(stale_token, "stale");
  dropped_base_ = header_u64(drops_token, "drops");

  for (auto& ledger : host_ledgers_)
    ledger = std::make_unique<core::EnergyAccountant>(
        core::read_accountant(in));
  core::read_multi_host(in, tenants_);
  for (const auto& agent : agents_) agent->load_state(in);

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
