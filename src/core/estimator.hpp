// The per-VM power estimation framework (paper Fig. 8, online path).
//
// An estimator receives, once per sampling period, the telemetry of all
// running VMs plus the machine's measured *adjusted* power (wall reading
// minus the calibrated idle floor, per Remark 1) and returns a per-VM power
// share Φ_i. Implementations:
//
//   * ShapleyVhcEstimator — the paper's method: non-deterministic Shapley
//     over the VHC linear approximation of v(S, C), with the grand
//     coalition's worth anchored to the measured power so Efficiency holds
//     exactly ("Shapley value always satisfies efficiency even [when] the
//     v(S,C)s are not accurate", Sec. VII-C). Unlike Fig. 8 it does not
//     look sub-coalition worths up in the offline v(S, C) table first: every
//     worth is the regression's (DESIGN.md, "The online path is the
//     regression game").
//   * OracleShapleyEstimator — exact Shapley with the simulator's coalition
//     oracle as worth function (the paper's exact-Shapley reference).
//
// Baseline estimators (power-model / marginal / resource-usage) live in
// src/baselines.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/state_vector.hpp"
#include "common/vm_config.hpp"
#include "core/linear_approx.hpp"
#include "core/shapley.hpp"
#include "core/shapley_fast.hpp"
#include "core/vhc.hpp"
#include "sim/coalition_probe.hpp"

namespace vmp::core {

/// One running VM's telemetry at the estimation instant.
struct VmSample {
  std::uint32_t vm_id = 0;
  common::VmTypeId type = 0;
  common::StateVector state;
};

/// Interface every power-disaggregation policy implements.
class PowerEstimator {
 public:
  virtual ~PowerEstimator() = default;

  /// Returns Φ_i (watts) for each VM in `vms`, disaggregating
  /// adjusted_power_w. adjusted_power_w must be >= 0; implementations throw
  /// std::invalid_argument on malformed input.
  [[nodiscard]] virtual std::vector<double> estimate(
      std::span<const VmSample> vms, double adjusted_power_w) = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// The paper's estimator: non-deterministic Shapley over the VHC linear
/// approximation, answered exactly by typeset_shapley on every tick.
class ShapleyVhcEstimator final : public PowerEstimator {
 public:
  /// `universe` must cover every type that will appear in estimate() calls.
  /// When anchor_grand_to_measurement is true (default, the paper's online
  /// configuration) the grand coalition worth is the measured power, making
  /// the allocation exactly efficient; when false, Σ Φ_i equals the
  /// approximation's own v(N, C') instead.
  ShapleyVhcEstimator(VhcUniverse universe, VhcLinearApprox approx,
                      bool anchor_grand_to_measurement = true);

  /// Up to kMaxHostVms VMs. After a first tick, a call with the same types,
  /// no more VMs and no newly busy VHC allocates only the vector it returns.
  [[nodiscard]] std::vector<double> estimate(std::span<const VmSample> vms,
                                             double adjusted_power_w) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "shapley-vhc";
  }

  [[nodiscard]] const VhcLinearApprox& approximation() const noexcept {
    return approx_;
  }
  [[nodiscard]] const VhcUniverse& universe() const noexcept {
    return universe_;
  }

 private:
  /// Refreshes the cached partition / per-player metadata for this tick.
  /// Returns the combo of all non-idle players.
  VhcComboMask prepare_tick(std::span<const VmSample> vms);
  /// Fills p_ with P[i][col] = state_i · w_combo[vhc_i] for every
  /// sub-combo of full_combo (columns numbered over full_combo's bits, see
  /// player_col_): typeset_shapley's contribution table.
  void build_contribution_table(std::span<const VmSample> vms,
                                VhcComboMask full_combo);

  VhcUniverse universe_;
  VhcLinearApprox approx_;
  bool anchor_;

  // Cross-tick caches and reusable scratch. estimate() mutates these, so a
  // single estimator must not be shared across threads (each fleet host
  // agent owns its own).
  ComboWeightCache combo_weights_;
  std::optional<VhcPartition> partition_;
  std::vector<common::VmTypeId> cached_types_;
  std::vector<common::VmTypeId> types_scratch_;
  std::vector<std::uint32_t> player_bit_;   // 1 << vhc, 0 when idle.
  std::vector<std::size_t> player_vhc_;
  std::vector<double> p_;                   // player x column contributions.
  std::vector<std::uint32_t> player_col_;   // column bit of vhc, 0 when idle.
  TypeSetScratch typeset_scratch_;
};

/// Exact Shapley against the simulator's coalition-worth oracle. The probe's
/// fleet order must match the order of the VmSample span (checked by size and
/// type id). This estimator is the evaluation's ground-truth reference; it is
/// unavailable on real hardware, which is the paper's entire premise.
class OracleShapleyEstimator final : public PowerEstimator {
 public:
  explicit OracleShapleyEstimator(const sim::CoalitionProbe& probe,
                                  bool anchor_grand_to_measurement = false);

  [[nodiscard]] std::vector<double> estimate(std::span<const VmSample> vms,
                                             double adjusted_power_w) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "shapley-oracle";
  }

 private:
  const sim::CoalitionProbe& probe_;
  bool anchor_;
};

}  // namespace vmp::core
