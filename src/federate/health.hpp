// Per-shard health tracking for the federation frontend.
//
// A shard that fails kEjectAfter consecutive fan-outs is *ejected*: the
// frontend stops burning its per-shard deadline on it every query and counts
// the shard straight into the response's missing list. While ejected, every
// kProbeInterval-th fan-out still sends one probe request; a probe that
// succeeds re-admits the shard immediately (and a probe that fails keeps it
// out). One success resets the consecutive-failure count wherever it stands,
// so a flapping shard must fail kEjectAfter times in a row again before the
// next ejection.
//
// Thread-safe: server workers drive concurrent fan-outs through one tracker.
// Ejections/re-admissions/probes are exported as vmpower_fed_* counters and
// a per-shard health gauge when a registry is attached.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>

#include "fleet/metrics.hpp"

namespace vmp::federate {

/// Consecutive failed fan-outs before a shard is ejected.
inline constexpr std::uint32_t kEjectAfter = 3;
/// While a shard is ejected, every kProbeInterval-th fan-out probes it.
inline constexpr std::uint32_t kProbeInterval = 4;

class ShardHealthTracker {
 public:
  explicit ShardHealthTracker(fleet::Metrics* metrics = nullptr);

  /// Admission decision for this fan-out: true when the shard is healthy or
  /// this is its probe turn. False — the caller skips the shard and reports
  /// it missing — only while ejected between probes.
  [[nodiscard]] bool should_try(std::uint32_t fleet);

  /// Outcome of an attempted shard query (count once per fan-out, after
  /// retries/hedges resolved). A success on an ejected shard re-admits it.
  void record_success(std::uint32_t fleet);
  void record_failure(std::uint32_t fleet);

  [[nodiscard]] bool ejected(std::uint32_t fleet) const;
  [[nodiscard]] std::uint64_t ejections() const;
  [[nodiscard]] std::uint64_t readmissions() const;

 private:
  struct State {
    std::uint32_t consecutive_failures = 0;
    bool ejected = false;
    std::uint32_t skipped = 0;  ///< fan-outs skipped since the last probe.
  };

  void export_health(std::uint32_t fleet, const State& state);

  fleet::Metrics* metrics_;
  mutable std::mutex mutex_;
  std::map<std::uint32_t, State> states_;
  std::uint64_t ejections_ = 0;
  std::uint64_t readmissions_ = 0;
};

}  // namespace vmp::federate
