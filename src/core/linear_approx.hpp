// VHC-based linear approximation of v(S, C) (paper Definition 2, Eq. 9-10).
//
// For each VHC combination, a set of power-mapping vectors {w_1 ... w_r} maps
// the aggregated per-VHC states to the coalition's power:
//
//     v(S, C) = Σ_j  w_j · v_j
//
// fitted by least squares over the combo's partially-measured samples. The
// weights are stored flattened (r x kNumComponents); VHCs absent from a combo
// keep zero weights, so predict() is a single dot product.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "core/vsc_table.hpp"

namespace vmp::core {

class VhcLinearApprox {
 public:
  /// One combination's fitted model in exportable form (see
  /// core/serialization.hpp).
  struct ComboModelData {
    VhcComboMask combo = 0;
    std::vector<double> weights;  // num_vhcs * kNumComponents, VHC-major.
    double rmse = 0.0;
    std::size_t sample_count = 0;
  };

  /// Fits one weight set per combo present in the table. Combos whose sample
  /// count is below the unknown count fall back to ridge regularization.
  /// ridge_lambda must be >= 0. Throws std::invalid_argument on a table with
  /// no samples.
  [[nodiscard]] static VhcLinearApprox fit(const VscTable& table,
                                           double ridge_lambda = 1e-6);

  /// Reconstructs an approximation from exported models (deserialization).
  /// Throws std::invalid_argument on inconsistent sizes, combo 0, a combo
  /// beyond the universe, or duplicate combos.
  [[nodiscard]] static VhcLinearApprox from_models(
      std::size_t num_vhcs, std::span<const ComboModelData> models);

  /// Exports every fitted combo, ascending by mask.
  [[nodiscard]] std::vector<ComboModelData> export_models() const;

  [[nodiscard]] std::size_t num_vhcs() const noexcept { return num_vhcs_; }
  [[nodiscard]] bool has_combo(VhcComboMask combo) const noexcept;
  /// Combos with fitted weights.
  [[nodiscard]] std::vector<VhcComboMask> fitted_combos() const;

  /// Flattened weights for a combo (num_vhcs x kNumComponents, VHC-major).
  /// Throws std::out_of_range for an unfitted combo.
  [[nodiscard]] std::span<const double> weights(VhcComboMask combo) const;

  /// Predicted v(S, C) for aggregated states (num_vhcs entries). When the
  /// exact combo was never measured, falls back to the best sub-combo
  /// composition: the prediction sums the largest fitted sub-combos covering
  /// the query (and is exact when VHC couplings are negligible). Throws
  /// std::out_of_range when no covering decomposition exists.
  [[nodiscard]] double predict(VhcComboMask combo,
                               std::span<const common::StateVector> states) const;

  /// Root-mean-square residual of the fit for a combo, in watts (introspection
  /// for EXPERIMENTS.md). Throws std::out_of_range for an unfitted combo.
  [[nodiscard]] double fit_rmse(VhcComboMask combo) const;

 private:
  VhcLinearApprox(std::size_t num_vhcs) : num_vhcs_(num_vhcs) {}

  [[nodiscard]] double predict_fitted(
      VhcComboMask combo, std::span<const common::StateVector> states) const;

  struct ComboModel {
    std::vector<double> weights;  // num_vhcs * kNumComponents
    double rmse = 0.0;
    std::size_t sample_count = 0;
  };

  std::size_t num_vhcs_;
  std::unordered_map<VhcComboMask, ComboModel> models_;
};

}  // namespace vmp::core
