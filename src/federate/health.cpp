#include "federate/health.hpp"

namespace vmp::federate {

ShardHealthTracker::ShardHealthTracker(fleet::Metrics* metrics)
    : metrics_(metrics) {}

bool ShardHealthTracker::should_try(std::uint32_t fleet) {
  std::lock_guard lock(mutex_);
  State& state = states_[fleet];
  if (!state.ejected) return true;
  if (++state.skipped >= kProbeInterval) {
    state.skipped = 0;
    if (metrics_)
      metrics_
          ->counter(obs::labeled("vmpower_fed_probes_total",
                                 {{"fleet", std::to_string(fleet)}}),
                    "Probe requests sent to ejected shards")
          .inc();
    return true;
  }
  return false;
}

void ShardHealthTracker::record_success(std::uint32_t fleet) {
  std::lock_guard lock(mutex_);
  State& state = states_[fleet];
  state.consecutive_failures = 0;
  if (state.ejected) {
    state.ejected = false;
    state.skipped = 0;
    ++readmissions_;
    if (metrics_)
      metrics_
          ->counter(obs::labeled("vmpower_fed_readmissions_total",
                                 {{"fleet", std::to_string(fleet)}}),
                    "Ejected shards re-admitted after a successful probe")
          .inc();
  }
  export_health(fleet, state);
}

void ShardHealthTracker::record_failure(std::uint32_t fleet) {
  std::lock_guard lock(mutex_);
  State& state = states_[fleet];
  ++state.consecutive_failures;
  if (!state.ejected && state.consecutive_failures >= kEjectAfter) {
    state.ejected = true;
    state.skipped = 0;
    ++ejections_;
    if (metrics_)
      metrics_
          ->counter(obs::labeled("vmpower_fed_ejections_total",
                                 {{"fleet", std::to_string(fleet)}}),
                    "Shards ejected after consecutive fan-out failures")
          .inc();
  }
  export_health(fleet, state);
}

bool ShardHealthTracker::ejected(std::uint32_t fleet) const {
  std::lock_guard lock(mutex_);
  const auto it = states_.find(fleet);
  return it != states_.end() && it->second.ejected;
}

std::uint64_t ShardHealthTracker::ejections() const {
  std::lock_guard lock(mutex_);
  return ejections_;
}

std::uint64_t ShardHealthTracker::readmissions() const {
  std::lock_guard lock(mutex_);
  return readmissions_;
}

void ShardHealthTracker::export_health(std::uint32_t fleet,
                                       const State& state) {
  if (!metrics_) return;
  metrics_
      ->gauge(obs::labeled("vmpower_fed_shard_healthy",
                           {{"fleet", std::to_string(fleet)}}),
              "1 while the shard is admitted to fan-outs, 0 while ejected")
      .set(state.ejected ? 0.0 : 1.0);
}

}  // namespace vmp::federate
