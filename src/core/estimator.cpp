#include "core/estimator.hpp"

#include <algorithm>
#include <bit>
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
  // The sampled tier meters up to kMaxSampledPlayers; exact kernels enforce
  // their own kMaxPlayers bound at dispatch.
  if (vms.size() > kMaxSampledPlayers)
    throw std::invalid_argument("PowerEstimator: too many VMs");
  if (adjusted_power_w < 0.0)
    throw std::invalid_argument("PowerEstimator: adjusted power must be >= 0");
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
  if (!combo_weights_.usable()) {
    last_kernel_ = "legacy";
    VMP_TRACE_SPAN("core.shapley_kernel", "core");
    return estimate_legacy(vms, adjusted_power_w);
  }

  const VhcComboMask full_combo = prepare_tick(vms);
  detect_symmetry_into(player_key_, states_, groups_);

  // Kernel selection, three tiers: any repeated (type, state) pair shrinks
  // the composition space below 2^n, so collapse wins whenever it applies;
  // the batched sweep covers fully distinguishable fleets; and once the
  // composition count exceeds the configured threshold (a fully
  // heterogeneous host) exactness is traded for the bounded-time sampled
  // tier with confidence intervals.
  VMP_TRACE_SPAN("core.shapley_kernel", "core");
  using Kernel = SampledKernelConfig::Kernel;
  const Kernel forced = sampled_config_.kernel;
  if (forced == Kernel::kSampled ||
      (forced == Kernel::kAuto &&
       groups_.composition_count() > sampled_config_.composition_threshold)) {
    last_kernel_ = "sampled";
    return estimate_sampled(adjusted_power_w, full_combo);
  }
  // Collapsed enumerates compositions, not masks, so it has no kMaxPlayers
  // bound: 64 VMs of a few types stay exact. Only the 2^n sweep does.
  if (forced == Kernel::kCollapsed ||
      (forced == Kernel::kAuto && groups_.group_count() < vms.size())) {
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
  const std::size_t n = groups_.player_count();
  const std::size_t r = groups_.group_count();
  const std::size_t num_vhcs = universe_.size();

  // Per-group metadata and mixed-radix strides over compositions
  // k = (k_0 .. k_{r-1}), k_g <= g_size.
  gsize_.resize(r);
  gstride_.resize(r);
  gvhc_.resize(r);
  gbit_.resize(r);
  gstate_.resize(r);
  std::size_t comps = 1;
  for (std::size_t g = 0; g < r; ++g) {
    const Player rep = groups_.members[g].front();
    gsize_[g] = groups_.members[g].size();
    gstride_[g] = comps;
    comps *= gsize_[g] + 1;
    gvhc_[g] = player_vhc_[rep];
    gbit_[g] = player_bit_[rep];
    gstate_[g] = states_[rep];
  }

  // One worth evaluation per composition — Π (g_size + 1) instead of 2^n.
  worth_.resize(comps);
  agg_.resize(num_vhcs);
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

  if (binom_n_ != n) {
    binom_.assign((n + 1) * (n + 1), 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      binom_[i * (n + 1)] = 1.0;
      for (std::size_t j = 1; j <= i; ++j)
        binom_[i * (n + 1) + j] = binom_[(i - 1) * (n + 1) + j - 1] +
                                  (j < i ? binom_[(i - 1) * (n + 1) + j] : 0.0);
    }
    binom_n_ = n;
  }
  const auto binom = [&](std::size_t a, std::size_t b) {
    return binom_[a * (n + 1) + b];
  };

  // Φ_{i in group j} = Σ_k C(g_j−1, k_j) Π_{t≠j} C(g_t, k_t) w(|k|)
  //                        [V(k+e_j) − V(k)],
  // with the coefficient factored as [Π_t C(g_t, k_t)] (g_j − k_j) / g_j.
  phi_group_.assign(r, 0.0);
  comp_k_.assign(r, 0);
  for (std::size_t idx = 0; idx < comps; ++idx) {
    std::size_t s = 0;
    double prod = 1.0;
    for (std::size_t g = 0; g < r; ++g) {
      s += comp_k_[g];
      prod *= binom(gsize_[g], comp_k_[g]);
    }
    if (s < n) {
      const double w = weights_[s];
      const double base = worth_[idx];
      for (std::size_t j = 0; j < r; ++j) {
        if (comp_k_[j] == gsize_[j]) continue;
        const double coeff = prod *
                             static_cast<double>(gsize_[j] - comp_k_[j]) /
                             static_cast<double>(gsize_[j]);
        phi_group_[j] += coeff * w * (worth_[idx + gstride_[j]] - base);
      }
    }
    for (std::size_t g = 0; g < r; ++g) {
      if (++comp_k_[g] <= gsize_[g]) break;
      comp_k_[g] = 0;
    }
  }

  std::vector<double> phi(n, 0.0);
  for (std::size_t j = 0; j < r; ++j)
    for (const Player p : groups_.members[j]) phi[p] = phi_group_[j];
  return phi;
}

void ShapleyVhcEstimator::build_contribution_table(VhcComboMask full_combo) {
  const std::size_t n = states_.size();
  const std::size_t combo_count = std::size_t{1} << universe_.size();
  p_.assign(n * combo_count, 0.0);
  for (VhcComboMask c = full_combo;; c = (c - 1) & full_combo) {
    if (c != 0) {
      const auto w = combo_weights_.effective_weights(c);
      for (std::size_t i = 0; i < n; ++i) {
        if (player_bit_[i] == 0 || (player_bit_[i] & c) == 0) continue;
        p_[i * combo_count + c] = states_[i].dot(w.subspan(
            player_vhc_[i] * common::kNumComponents, common::kNumComponents));
      }
    }
    if (c == 0) break;
  }
}

std::vector<double> ShapleyVhcEstimator::estimate_sampled(
    double adjusted_power_w, VhcComboMask full_combo) {
  const std::size_t n = states_.size();
  const std::size_t combo_count = std::size_t{1} << universe_.size();

  // Same batched worth backend as the table-less sweep: build P once
  // (serial), then every worth query is a read-only gather — safe for the
  // kernel's parallel batches. The VscTable is bypassed on this tier (its
  // probes would serialize the batch); the tier is approximation-only and
  // the measurement anchor still pins Σφ.
  build_contribution_table(full_combo);
  const SampledWorthFn worth = [&](std::uint64_t members) {
    VhcComboMask combo = 0;
    for (std::uint64_t m = members; m != 0; m &= m - 1)
      combo |= player_bit_[static_cast<std::size_t>(std::countr_zero(m))];
    if (combo == 0) return 0.0;  // all members idle.
    double sum = 0.0;
    for (std::uint64_t m = members; m != 0; m &= m - 1)
      sum += p_[static_cast<std::size_t>(std::countr_zero(m)) * combo_count +
                combo];
    return sum;
  };
  const std::uint64_t grand_mask =
      n == 64 ? ~0ULL : ((std::uint64_t{1} << n) - 1);
  const double grand = anchor_ ? adjusted_power_w : worth(grand_mask);

  SampledShapleyOptions options = sampled_config_.sampling;
  // Decorrelate consecutive ticks: mix a per-estimator call counter into the
  // seed so ticks do not reuse draws, while a fixed (config, call order)
  // still replays byte-identically at any thread count.
  options.seed += 0x632be59bd9b4e019ULL * static_cast<std::uint64_t>(
                                              ++estimate_calls_);
  sampler_.set_thread_pool(n >= pool_min_players_ ? pool_ : nullptr);
  SampledShapleyResult result = sampler_.run(n, worth, grand, options);

  worth_queries_ += result.worth_evaluations;
  last_sampled_ = SampledTickStats{
      result.max_halfwidth_w,    result.sum_halfwidth_w,
      result.efficiency_gap_w,   result.worth_evaluations,
      result.rounds,             result.unseen_strata,
      to_string(result.stopped_by)};
  return std::move(result.phi);
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
    // where c is the coalition's combo and P[i][c] = c_i · w_c[vhc_i] — one
    // contiguous multiply-add pass, no dispatch, no allocation.
    const std::size_t combo_count = std::size_t{1} << num_vhcs;
    build_contribution_table(full_combo);

    for (std::size_t mask = 1; mask < n_masks; ++mask) {
      if (anchor_ && mask == n_masks - 1) {
        worth_[mask] = adjusted_power_w;
        continue;
      }
      VhcComboMask combo = 0;
      for (std::size_t m = mask; m != 0; m &= m - 1)
        combo |= player_bit_[std::countr_zero(m)];
      if (combo == 0) {  // all members idle
        worth_[mask] = 0.0;
        continue;
      }
      ++worth_queries_;
      double sum = 0.0;
      for (std::size_t m = mask; m != 0; m &= m - 1)
        sum += p_[std::countr_zero(m) * combo_count + combo];
      worth_[mask] = sum;
    }
  } else {
    // Lookup-first path: serial, because worth_from bumps the hit counters
    // and every mask builds its aggregate in the shared agg_ scratch. The
    // scratch and the table's stack-keyed probe keep it allocation-free.
    agg_.resize(num_vhcs);
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
      worth_[mask] = combo == 0 ? 0.0 : worth_from(combo, agg_);
    }
  }

  std::vector<double> phi(n, 0.0);
  const std::span<const double> worth{worth_.data(), n_masks};
  if (pool_ != nullptr && !table_.has_value() && n >= pool_min_players_)
    accumulate_shapley_phi_parallel(n, worth, weights_, phi, *pool_);
  else
    accumulate_shapley_phi(n, worth, weights_, phi);
  return phi;
}

std::vector<double> ShapleyVhcEstimator::estimate_legacy(
    std::span<const VmSample> vms, double adjusted_power_w) {
  std::vector<common::VmTypeId> types;
  types.reserve(vms.size());
  for (const VmSample& vm : vms) types.push_back(vm.type);
  const VhcPartition partition(universe_, std::move(types));

  const auto states = states_of(vms);
  const Coalition grand = Coalition::grand(vms.size());

  const StateWorthFn worth = [&](Coalition s,
                                 std::span<const common::StateVector> c) {
    if (s.is_empty()) return 0.0;
    if (anchor_ && s == grand) return adjusted_power_w;
    // Idle members add no power (paper Remark 1), so they must not steer the
    // VHC-combination choice either: v({busy, idle}) has to equal v({busy})
    // exactly, or the Dummy axiom breaks through weight differences between
    // combinations.
    Coalition active = s;
    for (Player i : s.members())
      if (c[i] == common::StateVector::zero()) active = active.without(i);
    if (active.is_empty()) return 0.0;
    const auto aggregated = partition.aggregate(active, c);
    const VhcComboMask combo = partition.combo_of(active);
    ++worth_queries_;
    if (table_.has_value()) {
      // Fig. 8's lookup-first path: a directly-measured state beats the
      // regression.
      if (const auto hit = table_->lookup(combo, aggregated)) {
        ++table_hits_;
        return *hit;
      }
    }
    return approx_.predict(combo, aggregated);
  };

  return nondet_shapley_values(states, worth);
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
