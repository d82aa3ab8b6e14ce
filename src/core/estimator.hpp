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
//     v(S,C)s are not accurate", Sec. VII-C).
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

/// The Shapley kernel ShapleyVhcEstimator runs. Every kernel answers the
/// same game exactly; they differ in cost, and the type-set kernel answers
/// from the approximation alone, bypassing the VscTable.
enum class ShapleyKernel : std::uint8_t {
  kAuto,       ///< pick by symmetry and composition count (default).
  kCollapsed,  ///< force the composition enumeration.
  kSweep,      ///< force the 2^n mask sweep.
  kTypeSet,    ///< force the sum over busy-VHC sets (typeset_shapley).
};

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
/// approximation.
class ShapleyVhcEstimator final : public PowerEstimator {
 public:
  /// `universe` must cover every type that will appear in estimate() calls.
  /// When anchor_grand_to_measurement is true (default, the paper's online
  /// configuration) the grand coalition worth is the measured power, making
  /// the allocation exactly efficient; when false, Σ Φ_i equals the
  /// approximation's own v(N, C') instead.
  ShapleyVhcEstimator(VhcUniverse universe, VhcLinearApprox approx,
                      bool anchor_grand_to_measurement = true);

  /// The full Fig. 8 online path: sub-coalition worths are first looked up
  /// in the offline v(S, C) table (a directly-measured state wins over the
  /// regression) and only unobserved states fall through to the linear
  /// approximation. The table's VHC count must match the universe.
  ShapleyVhcEstimator(VhcUniverse universe, VhcLinearApprox approx,
                      VscTable table, bool anchor_grand_to_measurement = true);

  /// Fraction of worth queries answered from the table so far (0 when no
  /// table was supplied). Diagnostic for EXPERIMENTS.md and the fleet's
  /// per-host metric export.
  [[nodiscard]] double table_hit_rate() const noexcept;

  /// Worth evaluations performed so far. With symmetric players the
  /// collapsed kernel evaluates compositions rather than masks, so this
  /// grows far slower than 2^n per tick — exposed so tests and benchmarks
  /// can observe the collapse. The type-set kernel evaluates no coalition
  /// worth and adds nothing.
  [[nodiscard]] std::size_t worth_queries() const noexcept {
    return worth_queries_;
  }

  /// Table lookups made so far: at most worth_queries(), and fewer when the
  /// sweep rules a lookup out because some VHC of its combo cannot hit (see
  /// estimate_sweep). Diagnostic, like worth_queries().
  [[nodiscard]] std::size_t table_probes() const noexcept {
    return table_probes_;
  }

  /// Which kernel the last estimate() call dispatched to: "collapsed",
  /// "sweep", "typeset", or "none" before the first call. Feeds the fleet's
  /// fast-path selection counters.
  [[nodiscard]] std::string_view last_kernel() const noexcept {
    return last_kernel_;
  }

  /// Auto mode runs the collapsed or sweep kernel, with the Fig. 8 table,
  /// while the tick has at most this many compositions (2^16 keeps every
  /// paper-sized host, n <= 16 by Sec. V-B, on them), and the type-set
  /// kernel past it.
  static constexpr std::size_t kMaxCompositions = std::size_t{1} << 16;

  /// Kernel-selection policy.
  void set_kernel(ShapleyKernel kernel) noexcept { kernel_ = kernel; }

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
  /// Worth of a non-empty combo with the given aggregated states: table
  /// lookup first (Fig. 8), then the batched approximation.
  [[nodiscard]] double worth_from(VhcComboMask combo,
                                  std::span<const common::StateVector> aggregated);
  [[nodiscard]] std::vector<double> estimate_collapsed(double adjusted_power_w);
  [[nodiscard]] std::vector<double> estimate_sweep(double adjusted_power_w,
                                                   VhcComboMask full_combo);
  /// The VHCs of full_combo for which the table may hold the aggregate of
  /// some non-empty subset of their busy members (VscTable::may_hold). A
  /// coalition holding any other VHC misses the table.
  [[nodiscard]] VhcComboMask vhcs_that_may_hit(VhcComboMask full_combo);
  /// Fills p_ with P[i][col] = state_i · w_combo[vhc_i] for every
  /// sub-combo of full_combo (columns numbered over full_combo's bits, see
  /// player_col_) — the shared worth backend of the table-less sweep and
  /// the type-set kernel.
  void build_contribution_table(VhcComboMask full_combo);

  VhcUniverse universe_;
  VhcLinearApprox approx_;
  std::optional<VscTable> table_;
  bool anchor_;
  std::size_t table_hits_ = 0;
  std::size_t worth_queries_ = 0;
  std::size_t table_probes_ = 0;
  std::string_view last_kernel_ = "none";  ///< always a literal.

  // Cross-tick caches and reusable scratch. estimate() mutates these, so a
  // single estimator must not be shared across threads (each fleet host
  // agent owns its own).
  ComboWeightCache combo_weights_;
  std::optional<VhcPartition> partition_;
  std::vector<common::VmTypeId> cached_types_;
  std::vector<common::VmTypeId> types_scratch_;
  SymmetryGroups groups_;
  std::vector<common::StateVector> states_;
  std::vector<std::uint32_t> player_bit_;   // 1 << vhc, 0 when idle.
  std::vector<std::size_t> player_vhc_;
  std::vector<std::size_t> player_key_;     // symmetry key (idle sentinel).
  std::vector<double> weights_;             // per-size Shapley weights.
  std::size_t weights_n_ = 0;
  std::vector<double> worth_;               // per-mask / per-composition.
  std::vector<double> p_;                   // player x column contributions.
  std::size_t p_cols_ = 0;                  // 2^popcount(full_combo).
  std::vector<std::uint32_t> player_col_;   // column bit of vhc, 0 when idle.
  std::vector<common::StateVector> agg_;    // aggregate scratch.
  std::vector<common::StateVector> sub_agg_;  // one VHC's member subsets.
  std::vector<std::size_t> gsize_, gvhc_, comp_k_;
  std::vector<std::uint32_t> gbit_;
  std::vector<common::StateVector> gstate_;
  ShapleyKernel kernel_ = ShapleyKernel::kAuto;
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
