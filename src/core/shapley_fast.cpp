#include "core/shapley_fast.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace vmp::core {
namespace {

constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

}  // namespace

std::size_t SymmetryGroups::composition_count() const noexcept {
  // Saturate instead of wrapping: 64 all-distinct players would otherwise
  // multiply 2^64 → 0 and defeat the "too many compositions, go sampled"
  // kernel-selection threshold.
  std::size_t count = 1;
  for (const auto& group : members) {
    const std::size_t factor = group.size() + 1;
    if (count > std::numeric_limits<std::size_t>::max() / factor)
      return std::numeric_limits<std::size_t>::max();
    count *= factor;
  }
  return count;
}

void detect_symmetry_into(std::span<const std::size_t> keys,
                          std::span<const common::StateVector> states,
                          SymmetryGroups& out) {
  if (keys.size() != states.size())
    throw std::invalid_argument("detect_symmetry: keys/states size mismatch");
  const std::size_t n = keys.size();
  out.clear();
  out.group_of.resize(n);
  for (Player i = 0; i < n; ++i) {
    std::size_t g = kNoGroup;
    // Linear probe against each group's representative: n <= kMaxPlayers
    // keeps this O(n^2) scan trivially cheap.
    for (std::size_t j = 0; j < out.members.size(); ++j) {
      const Player rep = out.members[j].front();
      if (keys[rep] == keys[i] && states[rep] == states[i]) {
        g = j;
        break;
      }
    }
    if (g == kNoGroup) {
      g = out.members.size();
      out.members.emplace_back();
    }
    out.members[g].push_back(i);
    out.group_of[i] = g;
  }
}

SymmetryGroups detect_symmetry(std::span<const std::size_t> keys,
                               std::span<const common::StateVector> states) {
  SymmetryGroups out;
  detect_symmetry_into(keys, states, out);
  return out;
}

std::vector<double> shapley_values_grouped(const SymmetryGroups& groups,
                                           const WorthFn& v) {
  const std::size_t n = groups.player_count();
  if (n == 0)
    throw std::invalid_argument("shapley_values_grouped: n must be >= 1");
  if (n > kMaxPlayers)
    throw std::invalid_argument("shapley_values_grouped: n exceeds kMaxPlayers");
  const std::size_t r = groups.group_count();
  std::size_t covered = 0;
  for (const auto& g : groups.members) covered += g.size();
  if (r == 0 || covered != n)
    throw std::invalid_argument(
        "shapley_values_grouped: groups do not partition the players");

  // Per-group prefix masks: the representative coalition for k members of
  // group g is its first k players.
  std::vector<std::vector<Coalition::Mask>> prefix(r);
  for (std::size_t g = 0; g < r; ++g) {
    const auto& members = groups.members[g];
    prefix[g].assign(members.size() + 1, 0);
    for (std::size_t k = 0; k < members.size(); ++k)
      prefix[g][k + 1] = prefix[g][k] | (Coalition::Mask{1} << members[k]);
  }

  // Evaluate one representative coalition per composition.
  std::vector<double> worth(groups.composition_count());
  std::vector<std::size_t> k(r, 0);
  for (double& value : worth) {
    Coalition::Mask mask = 0;
    for (std::size_t g = 0; g < r; ++g) mask |= prefix[g][k[g]];
    value = v(Coalition{mask});
    for (std::size_t g = 0; g < r; ++g) {
      if (++k[g] < prefix[g].size()) break;
      k[g] = 0;
    }
  }

  std::vector<double> weight;
  fill_shapley_weights(n, weight);
  return collapsed_shapley_sum(groups, worth, weight);
}

std::vector<double> collapsed_shapley_sum(const SymmetryGroups& groups,
                                          std::span<const double> worth,
                                          std::span<const double> weights) {
  const std::size_t n = groups.player_count();
  const std::size_t r = groups.group_count();
  if (worth.size() != groups.composition_count() || weights.size() != n)
    throw std::invalid_argument(
        "collapsed_shapley_sum: worth/weights size mismatch");

  // Group sizes, mixed-radix strides, and Pascal's triangle up to the
  // largest group (row i holds C(i, 0..i)).
  std::vector<std::size_t> size(r), stride(r);
  std::size_t largest = 0, comps = 1;
  for (std::size_t g = 0; g < r; ++g) {
    size[g] = groups.members[g].size();
    stride[g] = comps;
    comps *= size[g] + 1;
    largest = std::max(largest, size[g]);
  }
  const std::size_t width = largest + 1;
  std::vector<double> binom(width * width, 0.0);
  for (std::size_t i = 0; i < width; ++i) {
    binom[i * width] = 1.0;
    for (std::size_t j = 1; j <= i; ++j)
      binom[i * width + j] =
          binom[(i - 1) * width + j - 1] + binom[(i - 1) * width + j];
  }

  // Φ_{i in group j} = Σ_k C(g_j−1, k_j) Π_{t≠j} C(g_t, k_t) w(|k|)
  //                        [V(k+e_j) − V(k)]
  // with the coefficient factored as [Π_t C(g_t, k_t)] · (g_j − k_j) / g_j.
  std::vector<double> phi_group(r, 0.0);
  std::vector<std::size_t> k(r, 0);
  for (std::size_t idx = 0; idx < comps; ++idx) {
    std::size_t s = 0;
    double prod = 1.0;
    for (std::size_t g = 0; g < r; ++g) {
      s += k[g];
      prod *= binom[size[g] * width + k[g]];
    }
    if (s < n) {
      const double w = weights[s];
      const double base = worth[idx];
      for (std::size_t j = 0; j < r; ++j) {
        if (k[j] == size[j]) continue;
        const double coeff =
            prod * static_cast<double>(size[j] - k[j]) / static_cast<double>(size[j]);
        phi_group[j] += coeff * w * (worth[idx + stride[j]] - base);
      }
    }
    for (std::size_t g = 0; g < r; ++g) {
      if (++k[g] <= size[g]) break;
      k[g] = 0;
    }
  }

  std::vector<double> phi(n, 0.0);
  for (std::size_t j = 0; j < r; ++j)
    for (const Player p : groups.members[j]) phi[p] = phi_group[j];
  return phi;
}

void ComboWeightCache::bind(const VhcLinearApprox* approx) {
  if (approx == approx_) return;
  approx_ = approx;
  slot_.clear();
  weights_.clear();
  stride_ = 0;
  if (approx_ == nullptr) return;
  stride_ = approx_->num_vhcs() * common::kNumComponents;
  slot_.assign(std::size_t{1} << approx_->num_vhcs(), kUnresolved);
  // The empty combo predicts 0: vector 0 is all zeros.
  weights_.assign(stride_, 0.0);
  slot_[0] = 1;
}

std::span<const double> ComboWeightCache::effective_weights(VhcComboMask combo) {
  if (approx_ == nullptr)
    throw std::logic_error("ComboWeightCache: no approximation bound");
  if (combo >= slot_.size())
    throw std::out_of_range("ComboWeightCache: combo out of range");
  std::uint32_t& slot = slot_[combo];
  if (slot == kUncoverable)
    throw std::out_of_range(
        "VhcLinearApprox::predict: no covering decomposition for combo");
  if (slot != kUnresolved)
    return {weights_.data() + (slot - 1) * stride_, stride_};

  const std::size_t offset = weights_.size();
  weights_.resize(offset + stride_, 0.0);
  double* out = weights_.data() + offset;
  if (approx_->has_combo(combo)) {
    const auto fitted = approx_->weights(combo);
    std::copy(fitted.begin(), fitted.end(), out);
  } else {
    // predict() is linear in the aggregated states, so probing it with unit
    // basis vectors recovers — element by element — exactly the summed
    // disjoint-cover weights its fallback would apply to any state.
    const std::size_t num_vhcs = approx_->num_vhcs();
    std::vector<common::StateVector> basis(num_vhcs);
    try {
      for (std::size_t j = 0; j < num_vhcs; ++j) {
        if (((combo >> j) & 1u) == 0) continue;  // absent VHCs carry no weight.
        for (std::size_t c = 0; c < common::kNumComponents; ++c) {
          basis[j][static_cast<common::Component>(c)] = 1.0;
          out[j * common::kNumComponents + c] = approx_->predict(combo, basis);
          basis[j][static_cast<common::Component>(c)] = 0.0;
        }
      }
    } catch (const std::out_of_range&) {
      weights_.resize(offset);
      slot = kUncoverable;
      throw;
    }
  }
  slot = static_cast<std::uint32_t>(offset / stride_) + 1;
  return {out, stride_};
}

double ComboWeightCache::predict(VhcComboMask combo,
                                 std::span<const common::StateVector> states) {
  const auto w = effective_weights(combo);
  if (states.size() * common::kNumComponents != w.size())
    throw std::invalid_argument("ComboWeightCache::predict: bad states size");
  double out = 0.0;
  for (std::size_t j = 0; j < states.size(); ++j)
    out += states[j].dot(w.subspan(j * common::kNumComponents,
                                   common::kNumComponents));
  return out;
}

}  // namespace vmp::core
