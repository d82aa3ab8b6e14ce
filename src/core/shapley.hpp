// Exact Shapley value (paper Sec. IV-B, Eq. 4) and its non-deterministic
// extension (Sec. V-A, Definition 1 / Eq. 7).
//
// For player i in an n-player game with worth v:
//
//   Φ_i = Σ_{S ⊆ N\{i}}  [v(S ∪ {i}) − v(S)] / ((n − |S|) · C(n, |S|))
//
// which equals the classic |S|!(n−|S|−1)!/n! weighting. The non-deterministic
// variant makes v depend on the VMs' component states C; since the states are
// fixed at estimation time, it reduces to the deterministic computation with
// the state-parameterized worth bound to the current C' — but the API keeps
// the distinction so call sites read like the paper.
#pragma once

#include <span>
#include <vector>

#include "common/state_vector.hpp"
#include "core/coalition.hpp"

namespace vmp::core {

/// Exact Shapley values of an n-player game.
///
/// Evaluates v once per coalition (2^n calls) and accumulates weighted
/// marginals in O(2^n · n). Throws std::invalid_argument if n == 0 or
/// n > kMaxPlayers.
[[nodiscard]] std::vector<double> shapley_values(std::size_t n, const WorthFn& v);

/// Shapley weight 1 / ((n − s) · C(n, s)) = s!(n−s−1)!/n! for a sub-coalition
/// of size s in an n-player game. Throws std::invalid_argument unless s < n.
[[nodiscard]] double shapley_weight(std::size_t n, std::size_t s);

/// Fills `weights` (resized to n) with shapley_weight(n, s) for s = 0..n-1,
/// the per-size table the exact and collapsed solvers weight marginals by.
void fill_shapley_weights(std::size_t n, std::vector<double>& weights);

/// State-dependent worth function v(S, C): the coalition's power when its
/// members hold the given per-player states (entries for non-members must be
/// ignored by the implementation).
using StateWorthFn =
    std::function<double(Coalition, std::span<const common::StateVector>)>;

/// Non-deterministic Shapley value (paper Eq. 7): disaggregates v(N, C') into
/// per-VM power Φ_i(C') given the current states C'. states.size() defines n.
[[nodiscard]] std::vector<double> nondet_shapley_values(
    std::span<const common::StateVector> states, const StateWorthFn& v);

}  // namespace vmp::core
