// Anytime approximate Shapley: a stratified, marginal-free sampling kernel.
//
// The exact kernels in shapley_fast.hpp win whenever symmetry collapses the
// coalition space, but a host where every VM is a distinct (type, state)
// pair degenerates back to 2^n — a 64-VM mixed host never answers. This
// kernel estimates the Shapley vector from shared coalition draws instead,
// in the stratified style of SVARM (Kolpaczki et al.): one worth evaluation
// v(S) updates a welfare accumulator for *every* player — the (i, |S|)
// "plus" stratum for each member i and the (j, |S|) "minus" stratum for
// each non-member j — so no marginal contribution v(S∪{i}) − v(S) is ever
// formed explicitly. The estimate is the per-size difference of stratum
// means:
//
//   φ̂_i = (1/n) [ Σ_{ℓ=1..n} mean⁺(i, ℓ)  −  Σ_{ℓ=0..n−1} mean⁻(i, ℓ) ]
//
// Structure of a run:
//
//  * Deterministic warm-up (~2n evaluations): v(∅) and the anchored
//    grand worth seed the boundary strata; all n singletons and all n
//    co-singletons make every stratum of size 0, 1, n−1, and n *exact* —
//    which also means games with n <= 3 are solved exactly with no
//    sampling at all.
//  * Sampling rounds: round r draws, from a counter-based RNG keyed on
//    (seed, r), one *independent* uniform coalition of each middle size
//    2..n−2 (a fresh partial Fisher–Yates per size), so every stratum mean
//    is unbiased and one round covers every middle size with n−3
//    evaluations. Independence across sizes is deliberate: nested prefixes
//    of a single permutation would correlate a player's strata and make the
//    reported intervals undercover.
//  * Anytime stop rule, checked once per batch of 16 rounds: `max_samples`
//    (worth-evaluation budget), `target_halfwidth_w` (every player's CI
//    half-width at or below the target), `budget_ns` (wall clock) —
//    whichever is hit first wins.
//
// Per-stratum Welford variance tracking yields a per-player confidence
// half-width z·sqrt(Σ_ℓ var⁺/cnt⁺ + var⁻/cnt⁻)/n with z = 3: the 3-sigma
// width keeps the *joint* "every player inside its interval" event likely
// even for large n, which is what the fleet invariant consumes. For a fixed
// player the strata really are independent — draws of different sizes are
// independent by construction, and at one size each draw lands on exactly
// one of the plus/minus sides — so the variance sum is the variance of φ̂_i,
// not an approximation. The returned vector is normalized by a uniform shift
// so Σφ̂ equals the grand worth exactly as summed; the pre-shift gap is
// reported so callers can check it against the CI (the invariant monitor
// does).
//
// Determinism: the solver runs on the calling thread. Every round's draws
// come from its own counter-derived stream keyed on (seed, round), and each
// draw is folded into the accumulators as soon as it is evaluated, rounds
// ascending and sizes ascending — a fixed seed replays byte-identically. (A
// `budget_ns` stop is the one escape hatch: wall-clock stopping points
// depend on machine speed, so only the sample-count and half-width rules
// preserve cross-machine identity.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/coalition.hpp"  // kMaxSampledPlayers

namespace vmp::core {

/// Worth of the coalition whose members are the set bits of `members`
/// (player i <-> bit i).
using SampledWorthFn = std::function<double(std::uint64_t members)>;

struct SampledShapleyOptions {
  /// Base seed of the counter-based draw streams. Runs with equal
  /// (seed, game) are byte-identical.
  std::uint64_t seed = 1;
  /// Worth-evaluation budget (warm-up included). The deterministic warm-up
  /// always completes (~2n evaluations), so the effective floor is one
  /// warm-up; 0 means unlimited — then at least one of the other rules must
  /// be set.
  std::size_t max_samples = 60'000;
  /// Stop once every player's CI half-width is at or below this many watts
  /// (0 disables).
  double target_halfwidth_w = 0.0;
  /// Wall-clock budget for the whole run (0 disables). Checked per batch,
  /// so the overshoot is bounded by one batch of 16 rounds.
  std::uint64_t budget_ns = 0;
};

enum class SampledStopReason : std::uint8_t {
  kExact,       ///< n <= 3: the warm-up already covers every stratum.
  kMaxSamples,  ///< evaluation budget exhausted.
  kHalfwidth,   ///< every player's CI half-width reached the target.
  kBudget,      ///< wall-clock budget elapsed.
};

/// Literal name of a stop reason ("exact", "max_samples", "halfwidth",
/// "budget") — safe to hold as a string_view forever.
[[nodiscard]] const char* to_string(SampledStopReason reason) noexcept;

struct SampledShapleyResult {
  /// Estimated per-player watts, uniformly shifted so the sum equals the
  /// grand worth (up to one floating-point rounding of the shift).
  std::vector<double> phi;
  /// Per-player 3-sigma CI half-width (W).
  std::vector<double> halfwidth_w;
  double max_halfwidth_w = 0.0;
  /// Conservative CI bound on Σφ̂: the sum of the per-player half-widths.
  /// The pre-shift efficiency gap must stay inside it.
  double sum_halfwidth_w = 0.0;
  /// |Σφ̂_raw − grand worth| before the efficiency shift.
  double efficiency_gap_w = 0.0;
  std::size_t worth_evaluations = 0;
  std::size_t rounds = 0;
  /// Middle (player, size) strata that ended with zero draws on one side
  /// and were finalized from the pooled per-size mean instead. Nonzero only
  /// on very short runs (sizes 2 and n−2 cover a given player at rate 2/n
  /// per round).
  std::size_t unseen_strata = 0;
  SampledStopReason stopped_by = SampledStopReason::kExact;
};

/// Reusable solver object: accumulator storage survives across run() calls,
/// so a per-tick caller (the estimator) allocates only on the first tick.
/// Not thread-safe.
class SampledShapley {
 public:
  /// Estimates the Shapley vector of the n-player game `worth` whose grand
  /// coalition worth is `grand_worth` (anchored by the caller — the kernel
  /// never evaluates the full mask). Throws std::invalid_argument on n == 0,
  /// n > kMaxSampledPlayers, or when every stop rule is disabled.
  [[nodiscard]] SampledShapleyResult run(std::size_t n,
                                         const SampledWorthFn& worth,
                                         double grand_worth,
                                         const SampledShapleyOptions& options);

 private:
  void fold_eval(std::size_t n, std::uint64_t members, std::size_t size,
                 double value);

  // Stratum accumulators, player-major by size: index i * (n + 1) + size.
  // plus = strata of coalitions containing the player, minus = not.
  std::vector<std::uint64_t> plus_cnt_, minus_cnt_;
  std::vector<double> plus_mean_, minus_mean_;
  std::vector<double> plus_m2_, minus_m2_;
  // Pooled per-size accumulators over every draw of that size, membership
  // ignored — the fallback mean/variance for thin pair strata.
  std::vector<std::uint64_t> pool_cnt_;
  std::vector<double> pool_mean_, pool_m2_;
  std::vector<double> var_;  ///< per-player variance scratch.
};

/// One-shot convenience wrapper around SampledShapley::run.
[[nodiscard]] SampledShapleyResult sampled_shapley_values(
    std::size_t n, const SampledWorthFn& worth, double grand_worth,
    const SampledShapleyOptions& options);

}  // namespace vmp::core
