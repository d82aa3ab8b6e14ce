#include "core/estimator.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace vmp::core {

namespace {

std::vector<common::StateVector> states_of(
    std::span<const common::VmSample> vms) {
  std::vector<common::StateVector> states;
  states.reserve(vms.size());
  for (const common::VmSample& vm : vms) states.push_back(vm.state);
  return states;
}

void require_input(std::span<const common::VmSample> vms,
                   double adjusted_power_w) {
  if (vms.empty())
    throw std::invalid_argument("PowerEstimator: need at least one VM");
  if (vms.size() > kMaxHostVms)
    throw std::invalid_argument("PowerEstimator: too many VMs");
  if (!std::isfinite(adjusted_power_w) || adjusted_power_w < 0.0)
    throw std::invalid_argument(
        "PowerEstimator: adjusted power must be finite and >= 0");
}

}  // namespace

ShapleyVhcEstimator::ShapleyVhcEstimator(VhcUniverse universe,
                                         VhcLinearApprox approx, bool anchor)
    : universe_(std::move(universe)), approx_(std::move(approx)),
      anchor_(anchor) {
  if (approx_.num_vhcs() != universe_.size())
    throw std::invalid_argument(
        "ShapleyVhcEstimator: approximation VHC count != universe size");
}

VhcComboMask ShapleyVhcEstimator::prepare_tick(
    std::span<const common::VmSample> vms) {
  const std::size_t n = vms.size();

  // The partition survives across ticks: a host's VM type list is stable, so
  // rebuilding it (and its allocations) every sampling period is pure waste.
  types_scratch_.clear();
  for (const common::VmSample& vm : vms) types_scratch_.push_back(vm.type);
  if (!partition_.has_value() || types_scratch_ != cached_types_) {
    partition_.emplace(universe_, types_scratch_);
    cached_types_ = types_scratch_;
  }

  player_bit_.resize(n);
  player_vhc_.resize(n);
  VhcComboMask full_combo = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t vhc = partition_->vhc_of(i);
    player_vhc_[i] = vhc;
    // Idle members add no power (paper Remark 1): they are dropped from
    // every coalition's combo/aggregate, so typeset_shapley sees them with
    // type bit 0.
    const bool idle = vms[i].state == common::StateVector::zero();
    player_bit_[i] = idle ? 0u : (std::uint32_t{1} << vhc);
    full_combo |= player_bit_[i];
  }
  return full_combo;
}

std::vector<double> ShapleyVhcEstimator::estimate(
    std::span<const common::VmSample> vms, double adjusted_power_w) {
  VMP_TRACE_SPAN("core.estimate", "core");
  require_input(vms, adjusted_power_w);

  // bind() is a no-op when already bound; re-binding here (rather than in
  // the constructors) keeps the cache coherent even if the estimator object
  // was moved since the last call.
  combo_weights_.bind(&approx_);
  const VhcComboMask full_combo = prepare_tick(vms);

  // The game is the regression's v(S, C) with idle members dropped, and
  // v(N) the measurement when anchored: typeset_shapley answers it exactly
  // from the contribution table, at any n and whether or not states repeat.
  VMP_TRACE_SPAN("core.shapley_kernel", "core");
  build_contribution_table(vms, full_combo);
  return typeset_shapley(
      p_, player_col_,
      anchor_ ? std::optional<double>(adjusted_power_w) : std::nullopt,
      typeset_scratch_);
}

void ShapleyVhcEstimator::build_contribution_table(
    std::span<const common::VmSample> vms, VhcComboMask full_combo) {
  const std::size_t n = vms.size();
  // Columns cover only the sub-combos of this tick's busy VHCs, renumbered
  // densely: a busy VHC's column bit is its rank among full_combo's bits.
  // P stays 2^popcount(full_combo) wide however large the universe is.
  const std::size_t p_cols = std::size_t{1} << std::popcount(full_combo);
  player_col_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int rank = std::popcount(full_combo & (player_bit_[i] - 1));
    player_col_[i] = player_bit_[i] == 0 ? 0u : std::uint32_t{1} << rank;
  }
  p_.assign(n * p_cols, 0.0);
  // (combo - full_combo) & full_combo steps through full_combo's sub-combos
  // in ascending order, which is column order.
  VhcComboMask combo = 0;
  for (std::size_t col = 1; col < p_cols; ++col) {
    combo = (combo - full_combo) & full_combo;
    const auto w = combo_weights_.effective_weights(combo);
    for (std::size_t i = 0; i < n; ++i) {
      if ((player_col_[i] & col) == 0) continue;
      p_[i * p_cols + col] = vms[i].state.dot(w.subspan(
          player_vhc_[i] * common::kNumComponents, common::kNumComponents));
    }
  }
}

OracleShapleyEstimator::OracleShapleyEstimator(const sim::CoalitionProbe& probe,
                                               bool anchor)
    : probe_(probe), anchor_(anchor) {}

std::vector<double> OracleShapleyEstimator::estimate(
    std::span<const common::VmSample> vms, double adjusted_power_w) {
  require_input(vms, adjusted_power_w);
  if (vms.size() != probe_.fleet_size())
    throw std::invalid_argument(
        "OracleShapleyEstimator: sample count != probe fleet size");
  for (std::size_t i = 0; i < vms.size(); ++i)
    if (vms[i].type != probe_.configs()[i].type_id)
      throw std::invalid_argument(
          "OracleShapleyEstimator: VM order does not match probe fleet");

  const auto states = states_of(vms);
  const Coalition grand = Coalition::grand(vms.size());
  const StateWorthFn worth = [&](Coalition s,
                                 std::span<const common::StateVector> c) {
    if (s.is_empty()) return 0.0;
    if (anchor_ && s == grand) return adjusted_power_w;
    return probe_.worth(s.mask(), c);
  };
  return nondet_shapley_values(states, worth);
}

}  // namespace vmp::core
