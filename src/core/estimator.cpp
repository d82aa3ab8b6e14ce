#include "core/estimator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace vmp::core {

namespace {

std::vector<common::StateVector> states_of(std::span<const VmSample> vms) {
  std::vector<common::StateVector> states;
  states.reserve(vms.size());
  for (const VmSample& vm : vms) states.push_back(vm.state);
  return states;
}

void require_input(std::span<const VmSample> vms, double adjusted_power_w) {
  if (vms.empty())
    throw std::invalid_argument("PowerEstimator: need at least one VM");
  // The type-set kernel meters up to kMaxHostVms; the collapsed and sweep
  // kernels enforce their own bounds at dispatch.
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

ShapleyVhcEstimator::ShapleyVhcEstimator(VhcUniverse universe,
                                         VhcLinearApprox approx, VscTable table,
                                         bool anchor)
    : ShapleyVhcEstimator(std::move(universe), std::move(approx), anchor) {
  if (table.num_vhcs() != universe_.size())
    throw std::invalid_argument(
        "ShapleyVhcEstimator: table VHC count != universe size");
  table_.emplace(std::move(table));
}

double ShapleyVhcEstimator::table_hit_rate() const noexcept {
  return worth_queries_ > 0
             ? static_cast<double>(table_hits_) /
                   static_cast<double>(worth_queries_)
             : 0.0;
}

VhcComboMask ShapleyVhcEstimator::prepare_tick(std::span<const VmSample> vms) {
  const std::size_t n = vms.size();

  // The partition survives across ticks: a host's VM type list is stable, so
  // rebuilding it (and its allocations) every sampling period is pure waste.
  types_scratch_.clear();
  for (const VmSample& vm : vms) types_scratch_.push_back(vm.type);
  if (!partition_.has_value() || types_scratch_ != cached_types_) {
    partition_.emplace(universe_, types_scratch_);
    cached_types_ = types_scratch_;
  }

  states_.resize(n);
  player_bit_.resize(n);
  player_vhc_.resize(n);
  player_key_.resize(n);
  VhcComboMask full_combo = 0;
  for (std::size_t i = 0; i < n; ++i) {
    states_[i] = vms[i].state;
    const std::size_t vhc = partition_->vhc_of(i);
    player_vhc_[i] = vhc;
    // Idle members add no power (paper Remark 1): they are dropped from
    // every coalition's combo/aggregate, and — since the worth then ignores
    // them entirely — all idle players are mutually symmetric regardless of
    // type (sentinel key past every real VHC index).
    const bool idle = states_[i] == common::StateVector::zero();
    player_bit_[i] = idle ? 0u : (std::uint32_t{1} << vhc);
    player_key_[i] = idle ? universe_.size() : vhc;
    full_combo |= player_bit_[i];
  }

  if (weights_n_ != n) {
    fill_shapley_weights(n, weights_);
    weights_n_ = n;
  }
  return full_combo;
}

double ShapleyVhcEstimator::worth_from(
    VhcComboMask combo, std::span<const common::StateVector> aggregated) {
  ++worth_queries_;
  if (table_.has_value()) {
    // Fig. 8's lookup-first path: a directly-measured state beats the
    // regression; a miss falls through on the exact (unquantized) states.
    ++table_probes_;
    if (const auto hit = table_->lookup(combo, aggregated)) {
      ++table_hits_;
      return *hit;
    }
  }
  return combo_weights_.predict(combo, aggregated);
}

std::vector<double> ShapleyVhcEstimator::estimate(std::span<const VmSample> vms,
                                                  double adjusted_power_w) {
  VMP_TRACE_SPAN("core.estimate", "core");
  require_input(vms, adjusted_power_w);

  // bind() is a no-op when already bound; re-binding here (rather than in
  // the constructors) keeps the cache coherent even if the estimator object
  // was moved since the last call.
  combo_weights_.bind(&approx_);
  const VhcComboMask full_combo = prepare_tick(vms);
  detect_symmetry_into(player_key_, states_, groups_);

  // Kernel selection: any repeated (type, state) pair shrinks the
  // composition space below 2^n, so collapse wins whenever it applies; the
  // batched sweep covers fully distinguishable hosts; past kMaxCompositions
  // the type-set kernel, whose cost follows the busy VHCs, not the VMs.
  VMP_TRACE_SPAN("core.shapley_kernel", "core");
  const std::size_t compositions = groups_.composition_count();
  if (kernel_ == ShapleyKernel::kTypeSet ||
      (kernel_ == ShapleyKernel::kAuto && compositions > kMaxCompositions)) {
    last_kernel_ = "typeset";
    build_contribution_table(full_combo);
    return typeset_shapley(p_, player_col_,
                           anchor_ ? std::optional<double>(adjusted_power_w)
                                   : std::nullopt);
  }
  if (kernel_ == ShapleyKernel::kCollapsed ||
      (kernel_ == ShapleyKernel::kAuto && groups_.group_count() < vms.size())) {
    // One worth per composition: refuse what the 2^n sweep would refuse.
    if (compositions > (std::size_t{1} << kMaxPlayers))
      throw std::invalid_argument(
          "PowerEstimator: too many compositions for the collapsed kernel");
    last_kernel_ = "collapsed";
    return estimate_collapsed(adjusted_power_w);
  }
  if (vms.size() > kMaxPlayers)
    throw std::invalid_argument(
        "PowerEstimator: too many VMs for the mask-sweep kernel");
  last_kernel_ = "sweep";
  return estimate_sweep(adjusted_power_w, full_combo);
}

std::vector<double> ShapleyVhcEstimator::estimate_collapsed(
    double adjusted_power_w) {
  const std::size_t r = groups_.group_count();

  // Per-group metadata for the mixed-radix walk over compositions
  // k = (k_0 .. k_{r-1}), k_g <= g_size, group 0 fastest.
  gsize_.resize(r);
  gvhc_.resize(r);
  gbit_.resize(r);
  gstate_.resize(r);
  for (std::size_t g = 0; g < r; ++g) {
    const Player rep = groups_.members[g].front();
    gsize_[g] = groups_.members[g].size();
    gvhc_[g] = player_vhc_[rep];
    gbit_[g] = player_bit_[rep];
    gstate_[g] = states_[rep];
  }

  // One worth evaluation per composition — Π (g_size + 1) instead of 2^n.
  const std::size_t comps = groups_.composition_count();
  worth_.resize(comps);
  agg_.resize(universe_.size());
  comp_k_.assign(r, 0);
  for (std::size_t idx = 0; idx < comps; ++idx) {
    if (anchor_ && idx == comps - 1) {
      // The full composition is the grand coalition: anchored to the
      // measurement, never queried (exactly like the mask path).
      worth_[idx] = adjusted_power_w;
    } else {
      VhcComboMask combo = 0;
      std::fill(agg_.begin(), agg_.end(), common::StateVector::zero());
      for (std::size_t g = 0; g < r; ++g) {
        if (comp_k_[g] == 0 || gbit_[g] == 0) continue;
        combo |= gbit_[g];
        agg_[gvhc_[g]] += gstate_[g] * static_cast<double>(comp_k_[g]);
      }
      // combo == 0: every included group was idle.
      worth_[idx] = combo == 0 ? 0.0 : worth_from(combo, agg_);
    }
    for (std::size_t g = 0; g < r; ++g) {
      if (++comp_k_[g] <= gsize_[g]) break;
      comp_k_[g] = 0;
    }
  }
  return collapsed_shapley_sum(groups_, {worth_.data(), comps}, weights_);
}

void ShapleyVhcEstimator::build_contribution_table(VhcComboMask full_combo) {
  const std::size_t n = states_.size();
  // Columns cover only the sub-combos of this tick's busy VHCs, renumbered
  // densely: a busy VHC's column bit is its rank among full_combo's bits.
  // P stays 2^popcount(full_combo) wide however large the universe is.
  p_cols_ = std::size_t{1} << std::popcount(full_combo);
  player_col_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int rank = std::popcount(full_combo & (player_bit_[i] - 1));
    player_col_[i] = player_bit_[i] == 0 ? 0u : std::uint32_t{1} << rank;
  }
  p_.assign(n * p_cols_, 0.0);
  // (combo - full_combo) & full_combo steps through full_combo's sub-combos
  // in ascending order, which is column order.
  VhcComboMask combo = 0;
  for (std::size_t col = 1; col < p_cols_; ++col) {
    combo = (combo - full_combo) & full_combo;
    const auto w = combo_weights_.effective_weights(combo);
    for (std::size_t i = 0; i < n; ++i) {
      if ((player_col_[i] & col) == 0) continue;
      p_[i * p_cols_ + col] = states_[i].dot(w.subspan(
          player_vhc_[i] * common::kNumComponents, common::kNumComponents));
    }
  }
}

std::vector<double> ShapleyVhcEstimator::estimate_sweep(
    double adjusted_power_w, VhcComboMask full_combo) {
  const std::size_t n = states_.size();
  const std::size_t n_masks = std::size_t{1} << n;
  const std::size_t num_vhcs = universe_.size();
  worth_.resize(n_masks);
  worth_[0] = 0.0;

  if (!table_.has_value()) {
    // Batched arithmetic path: every coalition worth is Σ_{i in S} P[i][c]
    // where c is the coalition's combo column and P[i][c] = c_i · w_c[vhc_i]
    // — one contiguous multiply-add pass, no dispatch, no allocation.
    build_contribution_table(full_combo);

    for (std::size_t mask = 1; mask < n_masks; ++mask) {
      if (anchor_ && mask == n_masks - 1) {
        worth_[mask] = adjusted_power_w;
        continue;
      }
      std::size_t col = 0;
      for (std::size_t m = mask; m != 0; m &= m - 1)
        col |= player_col_[std::countr_zero(m)];
      if (col == 0) {  // all members idle
        worth_[mask] = 0.0;
        continue;
      }
      ++worth_queries_;
      double sum = 0.0;
      for (std::size_t m = mask; m != 0; m &= m - 1)
        sum += p_[std::countr_zero(m) * p_cols_ + col];
      worth_[mask] = sum;
    }
  } else {
    // Lookup-first path: serial, because worth_from bumps the hit counters
    // and every mask builds its aggregate in the shared agg_ scratch. The
    // scratch and the table's stack-keyed probe keep it allocation-free.
    // A coalition's table key is its per-VHC aggregates (Eq. 8), so it can
    // hit only if the table may hold each of them. A mask holding a VHC for
    // which no member subset may be there gets the regression a miss would,
    // without building a key.
    agg_.resize(num_vhcs);
    const VhcComboMask may_hit = vhcs_that_may_hit(full_combo);
    for (std::size_t mask = 1; mask < n_masks; ++mask) {
      if (anchor_ && mask == n_masks - 1) {
        worth_[mask] = adjusted_power_w;
        continue;
      }
      VhcComboMask combo = 0;
      std::fill(agg_.begin(), agg_.end(), common::StateVector::zero());
      for (std::size_t m = mask; m != 0; m &= m - 1) {
        const std::size_t i = static_cast<std::size_t>(std::countr_zero(m));
        if (player_bit_[i] == 0) continue;
        combo |= player_bit_[i];
        agg_[player_vhc_[i]] += states_[i];
      }
      if (combo == 0) {
        worth_[mask] = 0.0;
      } else if ((combo & ~may_hit) != 0) {
        ++worth_queries_;
        worth_[mask] = combo_weights_.predict(combo, agg_);
      } else {
        worth_[mask] = worth_from(combo, agg_);
      }
    }
  }

  std::vector<double> phi(n, 0.0);
  accumulate_shapley_phi(n, {worth_.data(), n_masks}, weights_, phi);
  return phi;
}

VhcComboMask ShapleyVhcEstimator::vhcs_that_may_hit(VhcComboMask full_combo) {
  const std::size_t n = states_.size();
  VhcComboMask may_hit = 0;
  for (VhcComboMask rest = full_combo; rest != 0; rest &= rest - 1) {
    const auto vhc = static_cast<std::size_t>(std::countr_zero(rest));
    const VhcComboMask bit = VhcComboMask{1} << vhc;
    // sub_agg_ holds the aggregate of every subset of the VHC's busy members
    // seen so far, each added from zero in ascending player order as the
    // mask loop adds them into agg_, so both hold the same doubles and so
    // the same buckets. A member extends every subset before it; the first
    // subset the table may hold decides the VHC. At most 2^n entries, as
    // the sweep's worth_ has.
    sub_agg_.assign(1, common::StateVector::zero());
    for (std::size_t i = 0; i < n && (may_hit & bit) == 0; ++i) {
      if (player_bit_[i] != bit) continue;
      const std::size_t subsets = sub_agg_.size();
      for (std::size_t low = 0; low < subsets; ++low) {
        sub_agg_.push_back(sub_agg_[low] + states_[i]);
        if (table_->may_hold(vhc, sub_agg_.back())) {
          may_hit |= bit;
          break;
        }
      }
    }
  }
  return may_hit;
}

OracleShapleyEstimator::OracleShapleyEstimator(const sim::CoalitionProbe& probe,
                                               bool anchor)
    : probe_(probe), anchor_(anchor) {}

std::vector<double> OracleShapleyEstimator::estimate(
    std::span<const VmSample> vms, double adjusted_power_w) {
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
