// Offline data collection (paper Fig. 8, offline path; Sec. V-C).
//
// For each of the 2^r − 1 non-empty VHC combinations, the collector boots the
// fleet VMs of those types, drives them with the synthetic random-CPU
// benchmark, and records one (aggregated VHC states, adjusted measured power)
// sample per meter period into the v(S, C) table. The VHC linear
// approximation is then fitted from that table. This is the measurement
// campaign that replaces the infeasible traversal of all 2^n VM subsets.
#pragma once

#include <cstdint>
#include <vector>

#include "common/vm_config.hpp"
#include "core/linear_approx.hpp"
#include "core/vhc.hpp"
#include "core/vsc_table.hpp"
#include "sim/machine_spec.hpp"

namespace vmp::core {

struct CollectionOptions {
  double duration_s = 600.0;   ///< measurement time per VHC combination.
  double period_s = 1.0;       ///< meter/dstat sampling period (1 Hz).
  double resolution = 0.01;    ///< state quantization (paper Sec. VII-A).
  std::uint64_t seed = 1;
  /// false (paper setup): synthetic load randomizes CPU only; true: all
  /// components are randomized so the fit covers memory/disk power too.
  bool exercise_all_components = false;

  /// Probability that a dwell epoch drives all VMs at one *common* level
  /// instead of independent levels. Pure independent sampling never visits
  /// the equal-high-utilization diagonal where co-located production
  /// workloads live, so the fitted mapping would be biased there; mixing in
  /// common-mode epochs covers both regimes (the paper's campaign likewise
  /// stresses the coalition jointly to "measure different v(S,C)s").
  double common_mode_prob = 0.4;

  /// Seconds per synthetic dwell epoch.
  double dwell_s = 5.0;

  /// Probability that a dwell epoch samples the high-utilization band
  /// [high_band_lo, 1] instead of the full [0, 1] range. Production hosts
  /// operate mostly loaded, and the fitted mapping must be most accurate
  /// there (the paper's heterogeneous weights sum to the machine's
  /// *saturated* full-load power, showing the same emphasis).
  double high_band_prob = 0.55;
  double high_band_lo = 0.7;

  /// Throws std::invalid_argument on non-positive durations/periods, and on
  /// a duration that is infinite or spans 2^64 or more dwell epochs or
  /// sample periods.
  void validate() const;
};

/// The trained offline artifacts.
struct OfflineDataset {
  VhcUniverse universe;
  VscTable table;
  VhcLinearApprox approximation;
};

/// Runs the full offline campaign on a simulated machine hosting `fleet` and
/// returns the fitted dataset. Throws std::invalid_argument on an empty
/// fleet; machine capacity violations surface as std::runtime_error from the
/// hypervisor.
[[nodiscard]] OfflineDataset collect_offline_dataset(
    const sim::MachineSpec& spec, const std::vector<common::VmConfig>& fleet,
    const CollectionOptions& options);

}  // namespace vmp::core
