#include "core/linear_approx.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/least_squares.hpp"

namespace vmp::core {

using common::kNumComponents;

VhcLinearApprox VhcLinearApprox::fit(const VscTable& table, double ridge_lambda) {
  if (ridge_lambda < 0.0)
    throw std::invalid_argument("VhcLinearApprox::fit: ridge_lambda < 0");
  if (table.total_samples() == 0)
    throw std::invalid_argument("VhcLinearApprox::fit: empty table");

  VhcLinearApprox approx(table.num_vhcs());
  for (VhcComboMask combo : table.combos()) {
    const auto& samples = table.samples(combo);
    if (samples.empty()) continue;

    // Columns: (VHC j in combo) x component, VHC-major.
    std::vector<std::size_t> present;
    for (std::size_t j = 0; j < table.num_vhcs(); ++j)
      if ((combo & (VhcComboMask{1} << j)) != 0) present.push_back(j);
    const std::size_t n_cols = present.size() * kNumComponents;
    if (samples.size() < n_cols) {
      // Not enough rows for an ordinary solve; ridge still yields a usable
      // (shrunken) fit, which is better than refusing the combo outright.
      // Fall through — solve_ridge's augmented system is always square+.
    }

    util::Matrix design(samples.size(), n_cols);
    std::vector<double> target(samples.size());
    for (std::size_t row = 0; row < samples.size(); ++row) {
      const VscSample& sample = samples[row];
      for (std::size_t p = 0; p < present.size(); ++p) {
        const auto values = sample.vhc_states[present[p]].values();
        for (std::size_t c = 0; c < kNumComponents; ++c)
          design(row, p * kNumComponents + c) = values[c];
      }
      target[row] = sample.power_w;
    }

    const util::LeastSquaresResult solution =
        util::solve_ridge(design, target, std::max(ridge_lambda, 1e-12));

    ComboModel model;
    model.weights.assign(table.num_vhcs() * kNumComponents, 0.0);
    for (std::size_t p = 0; p < present.size(); ++p)
      for (std::size_t c = 0; c < kNumComponents; ++c)
        model.weights[present[p] * kNumComponents + c] =
            solution.coefficients[p * kNumComponents + c];
    model.rmse =
        solution.residual_norm / std::sqrt(static_cast<double>(samples.size()));
    model.sample_count = samples.size();
    approx.models_.emplace(combo, std::move(model));
  }
  return approx;
}

VhcLinearApprox VhcLinearApprox::from_models(
    std::size_t num_vhcs, std::span<const ComboModelData> models) {
  if (num_vhcs == 0 || num_vhcs > VhcUniverse::kMaxVhcs)
    throw std::invalid_argument("VhcLinearApprox::from_models: bad VHC count");
  if (models.empty())
    throw std::invalid_argument("VhcLinearApprox::from_models: no models");
  VhcLinearApprox approx(num_vhcs);
  for (const ComboModelData& data : models) {
    if (data.weights.size() != num_vhcs * kNumComponents)
      throw std::invalid_argument(
          "VhcLinearApprox::from_models: weight vector size mismatch");
    if (data.combo == 0)
      throw std::invalid_argument(
          "VhcLinearApprox::from_models: combo 0 holds no VHC");
    if (num_vhcs < 32 && (data.combo >> num_vhcs) != 0)
      throw std::invalid_argument(
          "VhcLinearApprox::from_models: combo addresses unknown VHCs");
    ComboModel model;
    model.weights = data.weights;
    model.rmse = data.rmse;
    model.sample_count = data.sample_count;
    if (!approx.models_.emplace(data.combo, std::move(model)).second)
      throw std::invalid_argument(
          "VhcLinearApprox::from_models: duplicate combo");
  }
  return approx;
}

std::vector<VhcLinearApprox::ComboModelData> VhcLinearApprox::export_models()
    const {
  std::vector<ComboModelData> out;
  out.reserve(models_.size());
  for (const VhcComboMask combo : fitted_combos()) {
    const ComboModel& model = models_.at(combo);
    out.push_back({combo, model.weights, model.rmse, model.sample_count});
  }
  return out;
}

bool VhcLinearApprox::has_combo(VhcComboMask combo) const noexcept {
  return models_.contains(combo);
}

std::vector<VhcComboMask> VhcLinearApprox::fitted_combos() const {
  std::vector<VhcComboMask> out;
  out.reserve(models_.size());
  for (const auto& [combo, _] : models_) out.push_back(combo);
  std::sort(out.begin(), out.end());
  return out;
}

std::span<const double> VhcLinearApprox::weights(VhcComboMask combo) const {
  const auto it = models_.find(combo);
  if (it == models_.end())
    throw std::out_of_range("VhcLinearApprox::weights: unfitted combo");
  return it->second.weights;
}

double VhcLinearApprox::fit_rmse(VhcComboMask combo) const {
  const auto it = models_.find(combo);
  if (it == models_.end())
    throw std::out_of_range("VhcLinearApprox::fit_rmse: unfitted combo");
  return it->second.rmse;
}

double VhcLinearApprox::predict_fitted(
    VhcComboMask combo, std::span<const common::StateVector> states) const {
  const auto& model = models_.at(combo);
  double power = 0.0;
  for (std::size_t j = 0; j < num_vhcs_; ++j) {
    const std::span<const double> wj{
        model.weights.data() + j * kNumComponents, kNumComponents};
    power += states[j].dot(wj);
  }
  return power;
}

double VhcLinearApprox::predict(
    VhcComboMask combo, std::span<const common::StateVector> states) const {
  if (states.size() != num_vhcs_)
    throw std::invalid_argument("VhcLinearApprox::predict: states size mismatch");
  if (combo == 0) return 0.0;
  if (models_.contains(combo)) return predict_fitted(combo, states);

  // Fallback: cover the query combo with the largest fitted disjoint
  // sub-combos (exact when cross-VHC couplings are negligible).
  std::vector<VhcComboMask> fitted = fitted_combos();
  std::sort(fitted.begin(), fitted.end(), [](VhcComboMask a, VhcComboMask b) {
    return std::popcount(a) > std::popcount(b);
  });
  double power = 0.0;
  VhcComboMask remaining = combo;
  for (VhcComboMask candidate : fitted) {
    if (candidate == 0) continue;
    if ((candidate & remaining) == candidate) {
      power += predict_fitted(candidate, states);
      remaining &= ~candidate;
      if (remaining == 0) return power;
    }
  }
  throw std::out_of_range(
      "VhcLinearApprox::predict: combo not fitted and not coverable by fitted "
      "sub-combos");
}

}  // namespace vmp::core
