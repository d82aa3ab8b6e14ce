// Coalitions of VMs (players) for the cooperative game (paper Sec. IV).
//
// A coalition S ⊆ N is a bitmask over at most kMaxPlayers VMs. The paper's
// complexity analysis (Sec. V-B) bounds real deployments at n <= 16 VMs per
// host; we allow up to 30 so scaling benches can sweep beyond that bound.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace vmp::core {

/// Index of a player (VM) within the game, 0-based.
using Player = std::size_t;

inline constexpr std::size_t kMaxPlayers = 30;

/// VM ceiling of one metered host. The type-set kernel (shapley_fast.hpp)
/// sums over VHC sets, not coalitions, so it is not bound by
/// Coalition::Mask; the mask-sweep kernels stay capped at kMaxPlayers.
inline constexpr std::size_t kMaxHostVms = 64;

/// An immutable set of players, represented as a bitmask.
class Coalition {
 public:
  using Mask = std::uint32_t;

  constexpr Coalition() noexcept = default;
  constexpr explicit Coalition(Mask mask) noexcept : mask_(mask) {}

  /// The empty coalition.
  [[nodiscard]] static constexpr Coalition empty() noexcept { return {}; }
  /// The grand coalition over n players. Throws std::invalid_argument if
  /// n > kMaxPlayers.
  [[nodiscard]] static Coalition grand(std::size_t n);
  /// The singleton {i}. Throws std::invalid_argument if i >= kMaxPlayers.
  [[nodiscard]] static Coalition single(Player i);

  [[nodiscard]] constexpr Mask mask() const noexcept { return mask_; }
  [[nodiscard]] constexpr std::size_t size() const noexcept {
    return static_cast<std::size_t>(std::popcount(mask_));
  }
  [[nodiscard]] constexpr bool is_empty() const noexcept { return mask_ == 0; }

  // contains/with/without sit on the O(2^n · n) Shapley sweep, so they are
  // branch-free on a pre-validated index: i < kMaxPlayers is the caller's
  // contract (asserted in debug builds), not a per-call runtime check.
  [[nodiscard]] constexpr bool contains(Player i) const noexcept {
    assert(i < kMaxPlayers);
    return (mask_ & (Mask{1} << i)) != 0;
  }
  /// S ∪ {i} / S \ {i}.
  [[nodiscard]] constexpr Coalition with(Player i) const noexcept {
    assert(i < kMaxPlayers);
    return Coalition{mask_ | (Mask{1} << i)};
  }
  [[nodiscard]] constexpr Coalition without(Player i) const noexcept {
    assert(i < kMaxPlayers);
    return Coalition{mask_ & static_cast<Mask>(~(Mask{1} << i))};
  }
  [[nodiscard]] constexpr Coalition united(Coalition other) const noexcept {
    return Coalition{mask_ | other.mask_};
  }
  [[nodiscard]] constexpr Coalition intersected(Coalition other) const noexcept {
    return Coalition{mask_ & other.mask_};
  }
  [[nodiscard]] constexpr bool is_subset_of(Coalition other) const noexcept {
    return (mask_ & other.mask_) == mask_;
  }

  /// Members in ascending player order.
  [[nodiscard]] std::vector<Player> members() const;

  [[nodiscard]] constexpr bool operator==(const Coalition&) const noexcept =
      default;

 private:
  Mask mask_ = 0;
};

/// Calls fn(subset) for every subset of `of`, including the empty coalition
/// and `of` itself — 2^|of| invocations in submask order.
void for_each_subset(Coalition of, const std::function<void(Coalition)>& fn);

/// All subsets of `of` as a vector (2^|of| entries). Intended for small
/// coalitions; throws std::invalid_argument if |of| > 24 to prevent
/// accidental multi-hundred-MB allocations.
[[nodiscard]] std::vector<Coalition> all_subsets(Coalition of);

/// The worth function v(S) of a deterministic cooperative game.
using WorthFn = std::function<double(Coalition)>;

}  // namespace vmp::core
