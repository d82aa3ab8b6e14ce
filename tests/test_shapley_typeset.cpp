// The type-set kernel (typeset_shapley) against brute-force Shapley, and the
// estimator that runs it on every tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/state_vector.hpp"
#include "core/axioms.hpp"
#include "core/estimator.hpp"
#include "core/shapley.hpp"
#include "core/shapley_fast.hpp"
#include "util/rng.hpp"

namespace vmp::core {
namespace {

using common::StateVector;
using common::VmSample;

// --- Kernel tier ------------------------------------------------------------

/// A VHC game in typeset_shapley's form: player j sits in the VHC type_bit[j]
/// (0 = idle), and p is its n × 2^K contribution table.
struct VhcGame {
  std::size_t cols = 1;
  std::vector<std::uint32_t> type_bit;
  std::vector<double> p;

  /// v(S) = Σ_{j∈S} P[j][B(S)], or `grand` for the grand coalition.
  [[nodiscard]] WorthFn worth(std::optional<double> grand) const {
    return [this, grand](Coalition s) {
      if (grand.has_value() && s == Coalition::grand(type_bit.size()))
        return *grand;
      std::size_t set = 0;
      for (const Player j : s.members()) set |= type_bit[j];
      if (set == 0) return 0.0;
      double sum = 0.0;
      for (const Player j : s.members()) sum += p[j * cols + set];
      return sum;
    };
  }
};

/// n players over k VHCs, each player idle with probability idle_share and
/// otherwise in a uniformly drawn VHC (a VHC may end up empty). Every
/// contribution the worth can read is drawn independently.
VhcGame random_vhc_game(util::Rng& rng, std::size_t n, std::size_t k,
                        double idle_share) {
  VhcGame game;
  game.cols = std::size_t{1} << k;
  for (std::size_t j = 0; j < n; ++j)
    game.type_bit.push_back(
        rng.bernoulli(idle_share)
            ? 0u
            : std::uint32_t{1} << rng.uniform_u64(k));
  game.p.assign(n * game.cols, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t set = 0; set < game.cols; ++set)
      if ((set & game.type_bit[j]) != 0)
        game.p[j * game.cols + set] = rng.uniform(0.0, 20.0);
  return game;
}

void expect_matches_brute_force(const VhcGame& game,
                                std::optional<double> grand,
                                const std::string& label) {
  const std::size_t n = game.type_bit.size();
  const auto fast = typeset_shapley(game.p, game.type_bit, grand);
  const auto exact = shapley_values(n, game.worth(grand));
  ASSERT_EQ(fast.size(), n) << label;
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(fast[i], exact[i], 1e-9) << label << " player " << i;
}

TEST(TypeSetShapley, MatchesBruteForceOnRandomVhcGames) {
  util::Rng rng(19);
  for (int round = 0; round < 600; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 14));
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const double idle_share = round % 3 == 0 ? 0.3 : 0.0;
    const VhcGame game = random_vhc_game(rng, n, k, idle_share);
    const std::optional<double> grand =
        round % 2 == 0 ? std::optional<double>(rng.uniform(0.0, 200.0))
                       : std::nullopt;
    expect_matches_brute_force(
        game, grand,
        "round " + std::to_string(round) + " n=" + std::to_string(n) +
            " K=" + std::to_string(k));
  }
}

TEST(TypeSetShapley, SixteenSingletonVhcsMatchBruteForce) {
  // K = 16 with one VM per VHC: 2^16 VHC sets, as many as the coalitions of
  // the 16 busy VMs. At n = 18 two idle VMs ride along.
  util::Rng rng(16);
  for (const std::size_t n : {16u, 18u}) {
    VhcGame game = random_vhc_game(rng, 16, 16, 0.0);
    for (std::size_t j = 0; j < 16; ++j)
      game.type_bit[j] = std::uint32_t{1} << j;
    game.p.assign(n * game.cols, 0.0);
    game.type_bit.resize(n, 0u);
    for (std::size_t j = 0; j < 16; ++j)
      for (std::size_t set = 0; set < game.cols; ++set)
        if ((set & game.type_bit[j]) != 0)
          game.p[j * game.cols + set] = rng.uniform(0.0, 20.0);
    expect_matches_brute_force(game, std::nullopt, "n=" + std::to_string(n));
    expect_matches_brute_force(game, 150.0,
                               "anchored n=" + std::to_string(n));
  }
}

TEST(TypeSetShapley, SixtyFourPlayersShareTheGrandWorth) {
  // Past every mask kernel: 64 players, of which 8 idle. Efficiency is the
  // check left where brute force cannot go.
  util::Rng rng(64);
  for (const std::size_t k : {1u, 4u, 8u, 16u}) {
    const VhcGame game = random_vhc_game(rng, 64, k, 0.125);
    const auto phi = typeset_shapley(game.p, game.type_bit);
    std::size_t busy = 0;
    for (const std::uint32_t bit : game.type_bit) busy |= bit;
    double grand = 0.0;
    for (std::size_t j = 0; j < 64; ++j)
      if (game.type_bit[j] != 0) grand += game.p[j * game.cols + busy];
    EXPECT_NEAR(std::accumulate(phi.begin(), phi.end(), 0.0), grand, 1e-9)
        << "K=" << k;
    for (std::size_t j = 0; j < 64; ++j) {
      if (game.type_bit[j] == 0) {
        EXPECT_EQ(phi[j], 0.0) << "K=" << k;
      }
    }
  }
}

TEST(TypeSetShapley, InputValidation) {
  const std::vector<double> p(8, 1.0);
  const std::vector<std::uint32_t> two = {1u, 2u};
  EXPECT_THROW(typeset_shapley(p, std::vector<std::uint32_t>{}),
               std::invalid_argument);
  // 8 entries over 3 players is not n × 2^K, nor is 2 × 4 with K = 2 and a
  // bit outside it, nor a player in two VHCs.
  EXPECT_THROW(typeset_shapley(p, std::vector<std::uint32_t>{1u, 1u, 1u}),
               std::invalid_argument);
  EXPECT_THROW(typeset_shapley(p, std::vector<std::uint32_t>{1u, 4u}),
               std::invalid_argument);
  EXPECT_THROW(typeset_shapley(p, std::vector<std::uint32_t>{1u, 3u}),
               std::invalid_argument);
  EXPECT_EQ(typeset_shapley(p, two).size(), 2u);
}

// --- Estimator tier ---------------------------------------------------------

// The single-VHC linear law power = w * aggregated cpu, stated exactly (a
// fit would carry its regression error into every share), so every VM's
// exact share is w times its own cpu.
VhcLinearApprox exact_linear_approx(double w_cpu) {
  const VhcLinearApprox::ComboModelData model{
      0b1, {w_cpu, 0.0, 0.0, 0.0}, 0.0, 200};
  return VhcLinearApprox::from_models(1, {&model, 1});
}

// `distinct` VMs with pairwise-distinct states plus `duplicated` extra VMs
// replaying the first state. Returns the samples and the summed cpu.
std::vector<VmSample> mixed_fleet(std::size_t distinct, std::size_t duplicated,
                                  double* total_cpu = nullptr) {
  std::vector<VmSample> vms;
  double sum = 0.0;
  for (std::size_t i = 0; i < distinct + duplicated; ++i) {
    const double cpu =
        i < distinct ? 0.3 + 0.017 * static_cast<double>(i) : 0.3;
    vms.push_back({static_cast<std::uint32_t>(i), 0, StateVector::cpu_only(cpu)});
    sum += cpu;
  }
  if (total_cpu != nullptr) *total_cpu = sum;
  return vms;
}

StateVector random_state(util::Rng& rng) {
  StateVector state;
  for (std::size_t c = 0; c < common::kNumComponents; ++c)
    state[static_cast<common::Component>(c)] = rng.uniform(0.05, 1.0);
  return state;
}

// A fitted approximation over r VHCs in which every combo has its own
// weights: a combo of m VHCs draws (1 − 0.08 (m − 1)) of the standalone
// power of its members, over all four state components.
VhcLinearApprox contended_approx(std::size_t r, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<StateVector> law(r);
  for (StateVector& w : law) w = random_state(rng);
  VscTable table(r, 0.01);
  for (VhcComboMask combo = 1; combo < (VhcComboMask{1} << r); ++combo) {
    const double share = 1.0 - 0.08 * (std::popcount(combo) - 1);
    for (int s = 0; s < 80; ++s) {
      std::vector<StateVector> states(r);
      double power = 0.0;
      for (std::size_t j = 0; j < r; ++j) {
        if (((combo >> j) & 1u) == 0) continue;
        states[j] = random_state(rng);
        power += 20.0 * share * states[j].dot(law[j].values());
      }
      table.record(combo, states, power);
    }
  }
  return VhcLinearApprox::fit(table);
}

/// n VMs over types 0..r-1 with random states; each is idle with
/// probability idle_share, and with `repeats` every other VM copies its
/// predecessor's type and state (symmetric pairs).
std::vector<VmSample> random_host(util::Rng& rng, std::size_t n, std::size_t r,
                                  double idle_share, bool repeats = false) {
  std::vector<VmSample> vms;
  for (std::size_t i = 0; i < n; ++i) {
    VmSample vm{static_cast<std::uint32_t>(i),
                static_cast<common::VmTypeId>(rng.uniform_u64(r)),
                random_state(rng)};
    if (repeats && i % 2 == 1) {
      vm.type = vms.back().type;
      vm.state = vms.back().state;
    }
    if (rng.bernoulli(idle_share)) vm.state = StateVector::zero();
    vms.push_back(vm);
  }
  return vms;
}

std::vector<common::VmTypeId> all_types(std::size_t r) {
  std::vector<common::VmTypeId> types(r);
  std::iota(types.begin(), types.end(), common::VmTypeId{0});
  return types;
}

/// The estimator's own worth game: the approximation's v(S, C) with idle
/// members dropped, and v(N) the measurement when anchored.
WorthFn estimator_game(const VhcUniverse& universe,
                       const VhcLinearApprox& approx,
                       const std::vector<VmSample>& vms, double measured,
                       bool anchor) {
  std::vector<common::VmTypeId> types;
  std::vector<StateVector> states;
  for (const VmSample& vm : vms) {
    types.push_back(vm.type);
    states.push_back(vm.state);
  }
  const std::size_t n = vms.size();
  return [partition = VhcPartition(universe, types), states, &approx,
          measured, anchor, n](Coalition s) {
    if (anchor && s == Coalition::grand(n)) return measured;
    Coalition busy = s;
    for (const Player i : s.members())
      if (states[i] == StateVector::zero()) busy = busy.without(i);
    if (busy.is_empty()) return 0.0;
    return approx.predict(partition.combo_of(busy),
                          partition.aggregate(busy, states));
  };
}

TEST(ShapleyVhcEstimator, MatchesBruteForceOnContendedHosts) {
  // Contended multi-VHC games with idle VMs, anchored and not, against
  // shapley_values over the same worth game.
  constexpr std::size_t r = 4;
  const VhcUniverse universe(all_types(r));
  const VhcLinearApprox approx = contended_approx(r, 8);
  util::Rng rng(12);
  for (int round = 0; round < 12; ++round) {
    const std::size_t n = 4 + static_cast<std::size_t>(round % 3) * 4;
    const auto vms = random_host(rng, n, r, 0.2);
    const double measured = rng.uniform(10.0, 80.0);
    for (const bool anchor : {true, false}) {
      ShapleyVhcEstimator estimator(universe, approx, anchor);
      const auto phi = estimator.estimate(vms, measured);
      const auto reference = shapley_values(
          n, estimator_game(universe, approx, vms, measured, anchor));
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(phi[i], reference[i], 1e-9)
            << "round " << round << " anchor=" << anchor << " vm " << i;
    }
  }
}

TEST(ShapleyVhcEstimator, SixtyFourDistinctVmsGetTheAdditiveLaw) {
  // 64 pairwise-distinct VMs, 2^64 coalitions: the type-set kernel answers
  // where no mask sweep would ever return.
  double total_cpu = 0.0;
  auto vms = mixed_fleet(64, 0, &total_cpu);
  vms[63].state = StateVector::zero();  // one idle VM rides along.
  total_cpu -= 0.3 + 0.017 * 63.0;
  const double measured = 10.0 * total_cpu;

  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(10.0));
  const auto phi = estimator.estimate(vms, measured);
  EXPECT_NEAR(std::accumulate(phi.begin(), phi.end(), 0.0), measured, 1e-9);
  // The additive law makes 10 * cpu the exact share; the idle VM gets 0.
  for (std::size_t i = 0; i < 63; ++i)
    EXPECT_NEAR(phi[i], 10.0 * (0.3 + 0.017 * static_cast<double>(i)), 1e-9)
        << "vm " << i;
  EXPECT_NEAR(phi[63], 0.0, 1e-9);
}

/// Exact Shapley values of a game whose worth depends only on how many
/// members of each group a coalition holds (the paper's symmetry collapse,
/// Sec. V-B/V-C). worth[idx] is V(k) for the composition k whose
/// mixed-radix index is idx, group 0 fastest with radix size[g] + 1. A
/// member of group j joins C(size_j − 1, k_j) · Π_{t≠j} C(size_t, k_t)
/// coalitions of composition k, each with the Shapley weight of |k|, and
/// gains V(k + e_j) − V(k) in each. Returns one value per group.
std::vector<double> composition_shapley(const std::vector<std::size_t>& size,
                                        const std::vector<double>& worth) {
  const std::size_t groups = size.size();
  const std::size_t n =
      std::accumulate(size.begin(), size.end(), std::size_t{0});
  std::vector<double> weight;
  fill_shapley_weights(n, weight);
  // choose[a][b] = C(a, b), from Pascal's triangle.
  const std::size_t largest = *std::max_element(size.begin(), size.end());
  std::vector<std::vector<double>> choose(largest + 1);
  for (std::size_t a = 0; a <= largest; ++a) {
    choose[a].assign(a + 1, 1.0);
    for (std::size_t b = 1; b < a; ++b)
      choose[a][b] = choose[a - 1][b - 1] + choose[a - 1][b];
  }
  std::vector<std::size_t> stride(groups, 1);
  for (std::size_t g = 1; g < groups; ++g)
    stride[g] = stride[g - 1] * (size[g - 1] + 1);

  std::vector<double> phi(groups, 0.0);
  std::vector<std::size_t> k(groups, 0);
  for (std::size_t idx = 0; idx < worth.size(); ++idx) {
    const std::size_t members =
        std::accumulate(k.begin(), k.end(), std::size_t{0});
    for (std::size_t j = 0; j < groups; ++j) {
      if (k[j] == size[j]) continue;  // no member of j is left to join.
      double ways = choose[size[j] - 1][k[j]];
      for (std::size_t t = 0; t < groups; ++t)
        if (t != j) ways *= choose[size[t]][k[t]];
      phi[j] += ways * weight[members] * (worth[idx + stride[j]] - worth[idx]);
    }
    for (std::size_t g = 0; g < groups; ++g) {
      if (++k[g] <= size[g]) break;
      k[g] = 0;
    }
  }
  return phi;
}

TEST(ShapleyVhcEstimator, TypeSetMatchesCollapsedOnSixtyFourVmsOfFourTypes) {
  // 4 VHCs × 16 VMs holding one state each: 2^64 coalitions, but only 17^4
  // compositions, so composition_shapley over the approximation's worth of
  // each composition is the reference.
  constexpr std::size_t r = 4;
  const std::vector<std::size_t> size(r, 16);
  const VhcUniverse universe(all_types(r));
  const VhcLinearApprox approx = contended_approx(r, 64);
  util::Rng rng(4);
  std::vector<StateVector> per_type(r);
  for (StateVector& state : per_type) state = random_state(rng);
  std::vector<VmSample> vms;
  for (std::size_t i = 0; i < 64; ++i)
    vms.push_back({static_cast<std::uint32_t>(i),
                   static_cast<common::VmTypeId>(i % r), per_type[i % r]});
  const double measured = 150.0;

  // Group g is type g, which is VHC g. The worth of composition k (group 0
  // fastest) aggregates k_g copies of each state; the full composition is
  // the anchored grand coalition.
  for (std::size_t g = 0; g < r; ++g)
    ASSERT_EQ(universe.index_of(static_cast<common::VmTypeId>(g)), g);
  std::size_t compositions = 1;
  for (const std::size_t members : size) compositions *= members + 1;
  std::vector<double> worth(compositions, 0.0);
  std::vector<std::size_t> k(r, 0);
  for (std::size_t idx = 0; idx < worth.size(); ++idx) {
    VhcComboMask combo = 0;
    std::vector<StateVector> aggregate(r);
    for (std::size_t g = 0; g < r; ++g) {
      if (k[g] == 0) continue;
      combo |= VhcComboMask{1} << g;
      aggregate[g] = per_type[g] * static_cast<double>(k[g]);
    }
    if (idx + 1 == worth.size()) worth[idx] = measured;
    else if (combo != 0) worth[idx] = approx.predict(combo, aggregate);
    for (std::size_t g = 0; g < r; ++g) {
      if (++k[g] <= size[g]) break;
      k[g] = 0;
    }
  }
  const auto reference = composition_shapley(size, worth);

  ShapleyVhcEstimator estimator(universe, approx);
  const auto phi = estimator.estimate(vms, measured);
  for (std::size_t i = 0; i < vms.size(); ++i)
    EXPECT_NEAR(phi[i], reference[i % r], 1e-9) << "vm " << i;
}

TEST(ShapleyVhcEstimator, AxiomsHoldAtEveryForcedTier) {
  // Efficiency, Symmetry and Dummy on the estimator's own worth game.
  // Repeated states make symmetric pairs and idle VMs make dummies of the
  // unanchored game.
  constexpr std::size_t r = 3;
  const VhcUniverse universe(all_types(r));
  const VhcLinearApprox approx = contended_approx(r, 3);
  util::Rng rng(33);
  for (int round = 0; round < 10; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 8));
    const auto vms = random_host(rng, n, r, 0.25, /*repeats=*/true);
    const double measured = rng.uniform(10.0, 60.0);
    for (const bool anchor : {true, false}) {
      const WorthFn v = estimator_game(universe, approx, vms, measured, anchor);
      ShapleyVhcEstimator estimator(universe, approx, anchor);
      const auto phi = estimator.estimate(vms, measured);
      const std::string label = "round " + std::to_string(round) +
                                " anchor=" + std::to_string(anchor);
      EXPECT_TRUE(check_efficiency(phi, v(Coalition::grand(n)))) << label;
      EXPECT_TRUE(check_symmetry(n, v, phi)) << label;
      EXPECT_TRUE(check_dummy(n, v, phi)) << label;
    }
  }
}

TEST(ShapleyVhcEstimator, AdditivityHoldsAtEveryKernel) {
  // Additivity on the estimator's own game. Approximations A and B fit the
  // same combos (every singleton, so every combo is covered, and a random
  // half of the rest), and A+B sums their weights; then v_{A+B}(S, C) =
  // v_A(S, C) + v_B(S, C) for every coalition, covered ones included. So
  // φ_A + φ_B = φ_{A+B}, unanchored, where the approximation alone is the
  // worth.
  util::Rng rng(55);
  for (int game = 0; game < 200; ++game) {
    const std::size_t r = 1 + rng.uniform_u64(4);
    const VhcUniverse universe(all_types(r));
    std::vector<VhcLinearApprox::ComboModelData> a, b, sum;
    for (VhcComboMask combo = 1; combo < (VhcComboMask{1} << r); ++combo) {
      if (std::popcount(combo) > 1 && rng.bernoulli(0.5)) continue;
      VhcLinearApprox::ComboModelData model{
          combo, std::vector<double>(r * common::kNumComponents, 0.0), 0.0, 40};
      a.push_back(model);
      b.push_back(model);
      sum.push_back(model);
      for (std::size_t k = 0; k < model.weights.size(); ++k) {
        if (((combo >> (k / common::kNumComponents)) & 1u) == 0) continue;
        a.back().weights[k] = rng.uniform(0.0, 20.0);
        b.back().weights[k] = rng.uniform(-5.0, 15.0);
        sum.back().weights[k] = a.back().weights[k] + b.back().weights[k];
      }
    }
    const auto approx_a = VhcLinearApprox::from_models(r, a);
    const auto approx_b = VhcLinearApprox::from_models(r, b);
    const auto approx_sum = VhcLinearApprox::from_models(r, sum);
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 10));
    const auto vms = random_host(rng, n, r, 0.2, /*repeats=*/game % 2 == 1);
    const auto phi_of = [&](const VhcLinearApprox& approx) {
      ShapleyVhcEstimator estimator(universe, approx, /*anchor=*/false);
      return estimator.estimate(vms, 50.0);
    };
    const auto phi_a = phi_of(approx_a);
    const auto phi_b = phi_of(approx_b);
    const auto phi_sum = phi_of(approx_sum);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(phi_a[i] + phi_b[i], phi_sum[i], 1e-9)
          << "game " << game << " vm " << i;
  }
}

TEST(ShapleyVhcEstimator, HostsPastKMaxHostVmsAreRejected) {
  ShapleyVhcEstimator estimator(VhcUniverse({0}), exact_linear_approx(10.0));
  double total_cpu = 0.0;
  // kMaxHostVms VMs are metered, exactly.
  const auto widest = mixed_fleet(kMaxHostVms, 0, &total_cpu);
  const auto phi = estimator.estimate(widest, 10.0 * total_cpu);
  for (std::size_t i = 0; i < widest.size(); ++i)
    EXPECT_NEAR(phi[i], 10.0 * widest[i].state.cpu(), 1e-9) << "vm " << i;

  // Past kMaxHostVms nothing can meter the host.
  const auto too_big = mixed_fleet(kMaxHostVms + 1, 0, &total_cpu);
  EXPECT_THROW(estimator.estimate(too_big, 10.0 * total_cpu),
               std::invalid_argument);
}

}  // namespace
}  // namespace vmp::core
