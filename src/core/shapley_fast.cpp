#include "core/shapley_fast.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace vmp::core {
namespace {

/// Subset Möbius transform in place: f(B) ← Σ_{C⊆B} (−1)^{|B∖C|} f(C).
void mobius_transform(std::vector<double>& f) {
  for (std::size_t bit = 1; bit < f.size(); bit <<= 1)
    for (std::size_t set = 0; set < f.size(); ++set)
      if ((set & bit) != 0) f[set] -= f[set ^ bit];
}

}  // namespace

std::vector<double> typeset_shapley(std::span<const double> p,
                                    std::span<const std::uint32_t> type_bit,
                                    std::optional<double> grand_worth,
                                    TypeSetScratch& scratch) {
  const std::size_t n = type_bit.size();
  if (n == 0) throw std::invalid_argument("typeset_shapley: n must be >= 1");
  const std::size_t cols = p.size() / n;
  if (cols * n != p.size() || !std::has_single_bit(cols))
    throw std::invalid_argument("typeset_shapley: table is not n x 2^K");
  const auto k = static_cast<std::size_t>(std::countr_zero(cols));

  // c_t players sit in busy VHC t; the other n − Σ c_t are idle. B(N),
  // the VHCs that hold a player, is `busy`.
  std::vector<std::size_t>& count = scratch.count;
  count.assign(k, 0);
  std::size_t idle = 0, busy = 0;
  for (const std::uint32_t bit : type_bit) {
    if (bit != 0 && (!std::has_single_bit(bit) || bit >= cols))
      throw std::invalid_argument("typeset_shapley: bad type bit");
    busy |= bit;
    if (bit == 0) ++idle;
    else ++count[static_cast<std::size_t>(std::countr_zero(bit))];
  }

  // M(C) = I + Σ_{t∈C} c_t players are idle or in a VHC of C. In a random
  // order, every player ahead of a busy player i of VHC a is one of them with
  // probability W(C) = 1/(n − M(C) + 1) when a ∈ C; when a ∉ C, a given one
  // of them is ahead of i and only such players are, with probability
  // U(C) = 1/((n − M(C) + 1)(n − M(C))). One Möbius transform of each turns
  // "ahead of i ⊆ C" into "exactly C" for every a and t at once.
  std::vector<double>& mu_w = scratch.mu_w;
  std::vector<double>& mu_u = scratch.mu_u;
  mu_w.resize(cols);
  mu_u.resize(cols);
  for (std::size_t set = 0; set < cols; ++set) {
    std::size_t m = idle;
    for (std::size_t rest = set; rest != 0; rest &= rest - 1)
      m += count[static_cast<std::size_t>(std::countr_zero(rest))];
    const auto outside = static_cast<double>(n - m);
    mu_w[set] = 1.0 / (outside + 1.0);
    mu_u[set] = m == n ? 0.0 : 1.0 / ((outside + 1.0) * outside);
  }
  mobius_transform(mu_w);
  mobius_transform(mu_u);

  // Q_t(B) = Σ_{j in VHC t} P[j][B], over the sets B that hold t. Supersets
  // of a bit are enumerated as set = (set + 1) | bit.
  std::vector<double>& q = scratch.q;
  q.assign(k * cols, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t bit = type_bit[j];
    if (bit == 0) continue;
    double* q_t = q.data() + static_cast<std::size_t>(std::countr_zero(bit)) * cols;
    const double* row = p.data() + j * cols;
    for (std::size_t set = bit; set < cols; set = (set + 1) | bit)
      q_t[set] += row[set];
  }

  // What every player of VHC a gains from the players ahead of it: a VHC-t
  // player j ahead of i, with exactly the VHCs B ahead of i (t ∈ B, a ∉ B),
  // moves from P[j][B] to P[j][B ∪ a] when i joins.
  std::vector<double>& shared = scratch.shared;
  shared.assign(k, 0.0);
  for (std::size_t a = 0; a < k; ++a) {
    const std::size_t a_bit = std::size_t{1} << a;
    for (std::size_t t = 0; t < k; ++t) {
      if (t == a) continue;
      const std::size_t t_bit = std::size_t{1} << t;
      const double* q_t = q.data() + t * cols;
      // Each such B is t ∪ rest, rest ⊆ free: rest = (rest − free) & free.
      const std::size_t free = (cols - 1) & ~(a_bit | t_bit);
      double sum = 0.0;
      std::size_t rest = 0;
      do {
        const std::size_t set = rest | t_bit;
        sum += (mu_u[set] + mu_u[rest]) * (q_t[set | a_bit] - q_t[set]);
        rest = (rest - free) & free;
      } while (rest != 0);
      shared[a] += sum;
    }
  }

  // i's own contribution P[i][B ∪ a], weighted by the probability that the
  // VHCs ahead of i, plus a, are exactly B ∪ a.
  std::vector<double> phi(n, 0.0);
  double linear_grand = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t bit = type_bit[i];
    if (bit == 0) continue;
    const double* row = p.data() + i * cols;
    double own = 0.0;
    for (std::size_t set = bit; set < cols; set = (set + 1) | bit)
      own += (mu_w[set] + mu_w[set ^ bit]) * row[set];
    phi[i] = own + shared[static_cast<std::size_t>(std::countr_zero(bit))];
    linear_grand += row[busy];
  }
  if (grand_worth.has_value()) {
    const double shift = (*grand_worth - linear_grand) / static_cast<double>(n);
    for (double& value : phi) value += shift;
  }
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

}  // namespace vmp::core
