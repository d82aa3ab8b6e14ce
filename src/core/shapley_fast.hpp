// Fast exact-Shapley kernels for the metering hot path.
//
// Two independent accelerations of core::shapley_values, both exact:
//
// 1. Symmetry collapse (paper Sec. V-B/V-C): datacenter VMs fall into r ≪ n
//    homogeneous types, and same-type VMs holding identical component states
//    are *symmetric players* — any coalition's worth depends only on how
//    many members of each group it contains, never on which ones. The
//    collapsed solver therefore enumerates type-count *compositions*
//    (Π_j (g_j + 1) worth evaluations, e.g. 625 for 4 groups of 4) instead
//    of raw masks (2^n, e.g. 65536), with zero approximation error:
//
//      Φ_{i ∈ group j} = Σ_k  C(g_j−1, k_j) · Π_{t≠j} C(g_t, k_t)
//                             · w(|k|) · [V(k + e_j) − V(k)]
//
//    where V(k) is the worth of any coalition with composition k and w is
//    the per-size Shapley weight. collapsed_shapley_sum is that sum, shared
//    by the generic solver and the estimator's collapsed kernel.
//
// 2. A batched worth evaluator for the VHC linear approximation
//    (ComboWeightCache): every coalition worth of a VhcLinearApprox is a dot
//    product of the aggregated states with one per-combo weight vector, so
//    materializing all 2^n worths is a cache-friendly arithmetic pass — no
//    std::function dispatch, no per-coalition allocation. The cache also
//    resolves predict()'s disjoint-cover fallback for unfitted combos into
//    an *effective* weight vector once, so the fallback costs nothing per
//    tick afterwards.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/state_vector.hpp"
#include "core/coalition.hpp"
#include "core/linear_approx.hpp"
#include "core/shapley.hpp"

namespace vmp::core {

/// A partition of the players into groups of pairwise-symmetric
/// (interchangeable) players, in first-seen order.
struct SymmetryGroups {
  std::vector<std::size_t> group_of;        ///< player -> dense group index.
  std::vector<std::vector<Player>> members; ///< group -> players, ascending.

  [[nodiscard]] std::size_t player_count() const noexcept {
    return group_of.size();
  }
  [[nodiscard]] std::size_t group_count() const noexcept {
    return members.size();
  }
  [[nodiscard]] bool all_distinct() const noexcept {
    return group_count() == player_count();
  }
  /// Π_j (g_j + 1): worth evaluations the collapsed solver performs. Always
  /// <= 2^n, with equality exactly when every player is its own group.
  /// Saturates at SIZE_MAX instead of wrapping (64 distinct players), so the
  /// value stays safe to compare against kernel-selection thresholds.
  [[nodiscard]] std::size_t composition_count() const noexcept;

  void clear() noexcept {
    group_of.clear();
    members.clear();
  }
};

/// Groups players by (key, state) equality: two players are symmetric under
/// any VHC worth function iff they share a key (their VHC index) and hold
/// bit-identical state vectors. keys and states must have equal size.
/// Throws std::invalid_argument on a size mismatch.
[[nodiscard]] SymmetryGroups detect_symmetry(
    std::span<const std::size_t> keys,
    std::span<const common::StateVector> states);

/// In-place variant for hot paths: fills `out`, reusing its storage.
void detect_symmetry_into(std::span<const std::size_t> keys,
                          std::span<const common::StateVector> states,
                          SymmetryGroups& out);

/// Exact Shapley values via symmetry-collapsed composition enumeration.
/// Players in the same group must be interchangeable under v (the solver
/// evaluates v on one representative coalition per composition and
/// broadcasts the per-group value to every member). Falls back gracefully —
/// with all-singleton groups this is the plain mask sweep, just slower than
/// shapley_values, so callers should collapse only when group_count <
/// player_count. Throws std::invalid_argument on 0 players or more than
/// kMaxPlayers.
[[nodiscard]] std::vector<double> shapley_values_grouped(
    const SymmetryGroups& groups, const WorthFn& v);

/// The collapsed sum behind shapley_values_grouped, over worths already
/// evaluated: worth[idx] is V(k) for the composition k whose mixed-radix
/// index (group 0 fastest, radix g_j + 1) is idx, so worth holds
/// groups.composition_count() entries; weights holds shapley_weight(n, s)
/// for s < n. Returns Φ for every player, each group's value broadcast to
/// its members. No kMaxPlayers bound — the cost is compositions × groups.
/// Throws std::invalid_argument when either span has the wrong size.
[[nodiscard]] std::vector<double> collapsed_shapley_sum(
    const SymmetryGroups& groups, std::span<const double> worth,
    std::span<const double> weights);

/// Cross-tick cache of per-combo *effective* power-mapping vectors for one
/// VhcLinearApprox: the fitted weights for fitted combos, and the summed
/// disjoint-cover weights for unfitted-but-coverable combos (extracted by
/// probing predict() with basis states, so the decomposition is exactly the
/// one predict() would choose). Entries are built lazily on first use and
/// are valid for the lifetime of the bound approximation, which is
/// immutable once fitted — this is what lets the estimator answer every
/// approximation worth as one dot product, tick after tick.
///
/// Storage is one 32-bit slot per combo (256 KiB at VhcUniverse::kMaxVhcs)
/// plus one vector per combo actually resolved, appended on first use — a
/// host touches only the sub-combos of its few types, so a wide universe
/// costs no more than those.
class ComboWeightCache {
 public:
  ComboWeightCache() = default;

  /// Binds (or re-binds) the approximation. Rebinding to a different object
  /// resets the cache; rebinding to the same pointer is a no-op, so hot
  /// paths may call this unconditionally.
  void bind(const VhcLinearApprox* approx);

  /// The effective weight vector for `combo` (num_vhcs * kNumComponents
  /// doubles, VHC-major), valid until the next effective_weights() or
  /// predict() call, which may append to the store. Throws
  /// std::out_of_range when the combo has no fitted cover (mirroring
  /// predict()) or lies outside the universe, std::logic_error when
  /// unbound. combo 0 yields an all-zero vector.
  [[nodiscard]] std::span<const double> effective_weights(VhcComboMask combo);

  /// predict() through the cache: dot(states, effective_weights(combo)).
  [[nodiscard]] double predict(VhcComboMask combo,
                               std::span<const common::StateVector> states);

 private:
  static constexpr std::uint32_t kUnresolved = 0;
  static constexpr std::uint32_t kUncoverable = UINT32_MAX;

  const VhcLinearApprox* approx_ = nullptr;
  std::size_t stride_ = 0;              ///< num_vhcs * kNumComponents.
  /// Per combo: kUnresolved, kUncoverable, or 1 + its vector's index in
  /// weights_.
  std::vector<std::uint32_t> slot_;
  std::vector<double> weights_;  ///< resolved vectors, in first-use order.
};

}  // namespace vmp::core
