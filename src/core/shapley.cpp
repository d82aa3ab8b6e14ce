#include "core/shapley.hpp"

#include <bit>
#include <stdexcept>
#include <vector>

namespace vmp::core {

double shapley_weight(std::size_t n, std::size_t s) {
  if (n == 0 || s >= n)
    throw std::invalid_argument("shapley_weight: requires s < n");
  // s! (n-s-1)! / n!  computed as a product of ratios to stay well inside
  // double range for n <= kMaxPlayers.
  double weight = 1.0 / static_cast<double>(n);
  // weight *= s! / (n-1)! restricted appropriately:
  // Π_{j=1..s} j / (n-1 - (j-1))  x  remaining (n-s-1)! cancels.
  for (std::size_t j = 1; j <= s; ++j)
    weight *= static_cast<double>(j) / static_cast<double>(n - j);
  return weight;
}

void fill_shapley_weights(std::size_t n, std::vector<double>& weights) {
  if (n == 0)
    throw std::invalid_argument("fill_shapley_weights: n must be >= 1");
  weights.resize(n);
  for (std::size_t s = 0; s < n; ++s) weights[s] = shapley_weight(n, s);
}

void accumulate_shapley_phi(std::size_t n, std::span<const double> worth,
                            std::span<const double> weights,
                            std::span<double> phi) {
  const std::size_t n_masks = std::size_t{1} << n;
  for (std::size_t mask = 0; mask < n_masks; ++mask) {
    const auto s_size =
        static_cast<std::size_t>(std::popcount(static_cast<std::uint32_t>(mask)));
    if (s_size == n) continue;  // grand coalition: no player is missing.
    const double w = weights[s_size];
    const double base = worth[mask];
    for (Player i = 0; i < n; ++i) {
      if ((mask >> i) & 1u) continue;
      phi[i] += w * (worth[mask | (std::size_t{1} << i)] - base);
    }
  }
}

std::vector<double> shapley_values(std::size_t n, const WorthFn& v) {
  if (n == 0) throw std::invalid_argument("shapley_values: n must be >= 1");
  if (n > kMaxPlayers)
    throw std::invalid_argument("shapley_values: n exceeds kMaxPlayers");

  const std::size_t n_masks = std::size_t{1} << n;

  // Evaluate the worth of every coalition exactly once.
  std::vector<double> worth(n_masks);
  for (std::size_t mask = 0; mask < n_masks; ++mask)
    worth[mask] = v(Coalition{static_cast<Coalition::Mask>(mask)});

  // Precompute the per-size weights.
  std::vector<double> weight;
  fill_shapley_weights(n, weight);

  std::vector<double> phi(n, 0.0);
  accumulate_shapley_phi(n, worth, weight, phi);
  return phi;
}

std::vector<double> nondet_shapley_values(
    std::span<const common::StateVector> states, const StateWorthFn& v) {
  const std::size_t n = states.size();
  if (n == 0)
    throw std::invalid_argument("nondet_shapley_values: need >= 1 state");
  // With the states C' pinned, Eq. 7 is Eq. 4 with the bound worth function.
  return shapley_values(
      n, [&](Coalition s) { return v(s, states); });
}

}  // namespace vmp::core
