#include "obs/slo.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace vmp::obs {

namespace {

std::uint64_t steady_seconds() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void SloTracker::Ring::record(std::uint64_t now_s, bool slow, bool error) {
  const std::uint64_t stamp = now_s / width_s;
  Slot& slot = slots[stamp % kSlots];
  if (slot.stamp != stamp) slot = Slot{.stamp = stamp};
  ++slot.total;
  if (slow) ++slot.slow;
  if (error) ++slot.errors;
}

void SloTracker::Ring::sum(std::uint64_t now_s, std::uint64_t& total,
                           std::uint64_t& slow, std::uint64_t& errors) const {
  const std::uint64_t stamp = now_s / width_s;
  // Slots with stamp in (stamp - kSlots, stamp] are current; anything older
  // is a leftover from a previous lap of the ring.
  const std::uint64_t oldest = stamp >= kSlots ? stamp - kSlots + 1 : 0;
  total = slow = errors = 0;
  for (const Slot& slot : slots) {
    if (slot.stamp < oldest || slot.stamp > stamp || slot.total == 0) continue;
    total += slot.total;
    slow += slot.slow;
    errors += slot.errors;
  }
}

SloTracker::SloTracker(SloOptions options) : options_(std::move(options)) {
  if (options_.latency_objective < 0.0 || options_.latency_objective >= 1.0)
    throw std::invalid_argument(
        "SloTracker: the latency objective must lie in [0, 1) — an "
        "objective of 1.0 leaves no error budget to burn against");
  if (!options_.clock) options_.clock = steady_seconds;

  if (options_.metrics != nullptr) {
    MetricsRegistry& m = *options_.metrics;
    requests_ = &m.counter("vmpower_slo_requests_total",
                           "Queries observed by the SLO tracker.");
    latency_breaches_ =
        &m.counter("vmpower_slo_latency_breaches_total",
                   "Queries at or over the SLO latency threshold.");
    errors_ = &m.counter("vmpower_slo_errors_total",
                         "Errored queries observed by the SLO tracker.");
    static constexpr const char* kObjectives[2] = {"latency", "availability"};
    static constexpr const char* kWindows[2] = {"fast", "slow"};
    std::size_t slot = 0;
    for (const char* objective : kObjectives) {
      for (const char* window : kWindows) {
        gauges_[slot++] = &m.gauge(
            labeled("vmpower_slo_compliance",
                    {{"objective", objective}, {"window", window}}),
            "Good fraction over the rolling window (1.0 when empty).");
        gauges_[slot++] = &m.gauge(
            labeled("vmpower_slo_burn_rate",
                    {{"objective", objective}, {"window", window}}),
            "Bad fraction over the error budget; 1.0 burns the budget "
            "exactly as provisioned.");
      }
    }
  }
}

void SloTracker::record(double latency_s, bool error) {
  const bool slow = latency_s >= options_.latency_threshold_s;
  {
    std::lock_guard lock(mutex_);
    const std::uint64_t now_s = options_.clock();
    fast_.record(now_s, slow, error);
    slow_.record(now_s, slow, error);
    ++recorded_;
  }
  if (requests_ != nullptr) requests_->inc();
  if (slow && latency_breaches_ != nullptr) latency_breaches_->inc();
  if (error && errors_ != nullptr) errors_->inc();
}

SloTracker::WindowHealth SloTracker::cell(std::uint64_t total,
                                          std::uint64_t bad,
                                          double objective) {
  WindowHealth health;
  health.total = total;
  health.bad = bad;
  if (total == 0) return health;  // empty window: compliant, zero burn.
  const double bad_fraction =
      static_cast<double>(bad) / static_cast<double>(total);
  health.compliance = 1.0 - bad_fraction;
  const double budget = 1.0 - objective;
  health.burn_rate = budget > 0.0 ? bad_fraction / budget : 0.0;
  return health;
}

SloTracker::Health SloTracker::health_locked() const {
  const std::uint64_t now_s = options_.clock();
  Health health;
  health.recorded = recorded_;
  std::uint64_t total = 0, slow_count = 0, errors = 0;
  fast_.sum(now_s, total, slow_count, errors);
  health.latency_fast = cell(total, slow_count, options_.latency_objective);
  health.availability_fast = cell(total, errors, kAvailabilityObjective);
  slow_.sum(now_s, total, slow_count, errors);
  health.latency_slow = cell(total, slow_count, options_.latency_objective);
  health.availability_slow = cell(total, errors, kAvailabilityObjective);
  return health;
}

SloTracker::Health SloTracker::health() const {
  std::lock_guard lock(mutex_);
  return health_locked();
}

void SloTracker::publish() {
  Health health;
  {
    std::lock_guard lock(mutex_);
    health = health_locked();
  }
  if (gauges_[0] == nullptr) return;
  const WindowHealth* cells[4] = {&health.latency_fast, &health.latency_slow,
                                  &health.availability_fast,
                                  &health.availability_slow};
  for (std::size_t i = 0; i < 4; ++i) {
    gauges_[2 * i]->set(cells[i]->compliance);
    gauges_[2 * i + 1]->set(cells[i]->burn_rate);
  }
}

std::string SloTracker::to_text() const {
  const Health health = this->health();
  const struct {
    const char* objective;
    const char* window;
    double target;
    const WindowHealth* cell;
  } rows[4] = {
      {"latency", "fast", options_.latency_objective, &health.latency_fast},
      {"latency", "slow", options_.latency_objective, &health.latency_slow},
      {"availability", "fast", kAvailabilityObjective,
       &health.availability_fast},
      {"availability", "slow", kAvailabilityObjective,
       &health.availability_slow},
  };
  std::string out;
  char line[192];
  for (const auto& row : rows) {
    std::snprintf(line, sizeof line,
                  "slo %s window=%s objective=%.4f total=%llu bad=%llu "
                  "compliance=%.6f burn=%.6f\n",
                  row.objective, row.window, row.target,
                  static_cast<unsigned long long>(row.cell->total),
                  static_cast<unsigned long long>(row.cell->bad),
                  row.cell->compliance, row.cell->burn_rate);
    out += line;
  }
  return out;
}

}  // namespace vmp::obs
