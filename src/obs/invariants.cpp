#include "obs/invariants.hpp"

#include <cstdio>

#include "util/logging.hpp"

namespace vmp::obs {

namespace {

std::string format_watts(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.6e", value);
  return buffer;
}

}  // namespace

InvariantMonitor::InvariantMonitor(MetricsRegistry& registry,
                                   InvariantOptions options)
    : registry_(registry), options_(options) {}

std::uint64_t InvariantMonitor::breaches() const noexcept {
  std::uint64_t total = 0;
  for (const char* invariant :
       {"efficiency", "ring", "serve_exactly_once", "ledger_tail",
        "ledger_replay", "federation"})
    total += registry_
                 .counter(labeled("vmpower_invariant_breaches_total",
                                  {{"invariant", invariant}}),
                          "Invariant threshold breaches")
                 .value();
  return total;
}

void InvariantMonitor::breach(Which which, const char* invariant,
                              std::uint64_t epoch,
                              const std::string& detail) {
  registry_
      .counter(labeled("vmpower_invariant_breaches_total",
                       {{"invariant", invariant}}),
               "Invariant threshold breaches")
      .inc();
  Throttle& throttle = throttle_[which];
  if (throttle.warned &&
      epoch < throttle.last_epoch + options_.warn_log_interval)
    return;
  throttle.warned = true;
  throttle.last_epoch = epoch;
  VMP_LOG_WARN("invariant=%s epoch=%llu %s", invariant,
               static_cast<unsigned long long>(epoch), detail.c_str());
}

void InvariantMonitor::observe_efficiency(std::uint64_t epoch,
                                          double residual_w) {
  registry_
      .gauge("vmpower_invariant_efficiency_residual_w",
             "Per-tick fleet efficiency residual: sum over hosts of "
             "|sum(phi) - measured adjusted power|")
      .set(residual_w);
  registry_
      .gauge("vmpower_invariant_epoch",
             "Tick epoch of the latest invariant samples")
      .set(static_cast<double>(epoch));
  if (residual_w > options_.efficiency_residual_warn_w)
    breach(kEfficiency, "efficiency", epoch,
           "residual_w=" + format_watts(residual_w) +
               " threshold_w=" +
               format_watts(options_.efficiency_residual_warn_w));
}

void InvariantMonitor::observe_serve_accounting(std::uint64_t epoch,
                                                std::uint64_t admitted,
                                                std::uint64_t answered,
                                                std::uint64_t outstanding) {
  registry_
      .gauge("vmpower_serve_outstanding",
             "Admitted requests not yet answered (queued or on a worker)")
      .set(static_cast<double>(outstanding));
  const std::string detail = "admitted=" + std::to_string(admitted) +
                             " answered=" + std::to_string(answered) +
                             " outstanding=" + std::to_string(outstanding);
  if (answered > admitted)
    breach(kServeAccounting, "serve_exactly_once", epoch,
           detail + " (a request was answered more than once)");
  else if (outstanding == 0 && answered < admitted)
    breach(kServeAccounting, "serve_exactly_once", epoch,
           detail + " (a request was admitted but never answered)");
}

void InvariantMonitor::observe_ledger(std::uint64_t snapshot_epoch,
                                      std::uint64_t ledger_tail_epoch) {
  const std::uint64_t lag = snapshot_epoch >= ledger_tail_epoch
                                ? snapshot_epoch - ledger_tail_epoch
                                : ledger_tail_epoch - snapshot_epoch;
  registry_
      .gauge("vmpower_ledger_tail_lag",
             "Absolute gap between the newest snapshot epoch and the "
             "durable ledger's tail epoch (0 when every publish landed)")
      .set(static_cast<double>(lag));
  if (lag != 0)
    breach(kLedgerTail, "ledger_tail", snapshot_epoch,
           "tail_epoch=" + std::to_string(ledger_tail_epoch) +
               " snapshot_epoch=" + std::to_string(snapshot_epoch) +
               " (a publish missed the durable ledger)");
}

void InvariantMonitor::observe_ledger_replay(std::uint64_t epoch,
                                             double replayed_total_j,
                                             double accountant_total_j) {
  // Bit-for-bit: the record stores the accountant's totals verbatim, so any
  // difference at all is divergence, not rounding.
  if (replayed_total_j != accountant_total_j)
    breach(kLedgerReplay, "ledger_replay", epoch,
           "replayed_total_j=" + format_watts(replayed_total_j) +
               " accountant_total_j=" + format_watts(accountant_total_j) +
               " (ledger history and checkpoint diverged)");
}

void InvariantMonitor::observe_federation(std::uint64_t epoch,
                                          double federated_total,
                                          double shard_sum_total,
                                          std::uint64_t shards) {
  const double residual = federated_total - shard_sum_total;
  registry_
      .gauge("vmpower_fed_additivity_residual",
             "Federated roll-up total minus the sum of the shard answers on "
             "the last complete fan-out (must be exactly zero)")
      .set(residual);
  registry_
      .gauge("vmpower_fed_rollup_shards",
             "Shards that contributed to the last complete fan-out")
      .set(static_cast<double>(shards));
  // Exact comparison on purpose: the roll-up *is* the sum of those doubles,
  // so even one ulp of residual is an accounting bug, not rounding.
  if (residual != 0.0)
    breach(kFederation, "federation", epoch,
           "federated_total=" + format_watts(federated_total) +
               " shard_sum_total=" + format_watts(shard_sum_total) +
               " shards=" + std::to_string(shards) +
               " (federated total diverged from the shard sum)");
}

void InvariantMonitor::observe_ring(std::uint64_t epoch,
                                    std::uint64_t occupancy,
                                    std::uint64_t retention,
                                    std::uint64_t evictions_total) {
  registry_
      .gauge("vmpower_serve_snapshot_ring_occupancy",
             "Snapshots currently retained for window queries")
      .set(static_cast<double>(occupancy));
  registry_
      .gauge("vmpower_serve_snapshot_ring_retention",
             "Configured snapshot retention ring capacity")
      .set(static_cast<double>(retention));
  // Evictions are by design once the ring fills; export the count, no warn.
  Counter& evictions = registry_.counter(
      "vmpower_serve_snapshot_evictions_total",
      "Snapshots evicted from the retention ring");
  if (evictions_total > evictions.value())
    evictions.inc(evictions_total - evictions.value());
  registry_
      .gauge("vmpower_serve_snapshot_epoch",
             "Epoch of the most recently published snapshot")
      .set(static_cast<double>(epoch));
}

}  // namespace vmp::obs
