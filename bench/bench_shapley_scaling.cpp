// Microbenchmarks for the paper's Sec. V-B complexity analysis.
//
// Exact Shapley needs 2^n worth evaluations; the paper argues n <= 16 on
// real hosts, so the overhead is "very low" (2^16 = 65536 operations). These
// benchmarks quantify that claim on this implementation and measure the
// escape hatches for larger games: symmetry collapse, and the estimator's
// type-set kernel, whose cost grows with the 2^K sets of busy VHCs rather
// than with the 2^n coalitions. The JSON context records vmpower's own build
// type as "build_type"; google-benchmark's "library_build_type" describes
// the installed benchmark library, not this code.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "bench_json.hpp"
#include "common/state_vector.hpp"
#include "core/estimator.hpp"
#include "core/linear_approx.hpp"
#include "core/shapley.hpp"
#include "core/shapley_fast.hpp"
#include "core/vhc.hpp"
#include "core/vsc_table.hpp"
#include "util/rng.hpp"

namespace {

using vmp::core::Coalition;
using vmp::core::WorthFn;

// A synthetic sub-additive game of n players (cheap to evaluate, so the
// benchmark measures the Shapley machinery, not the worth function).
std::vector<double> make_game_table(std::size_t n, std::uint64_t seed) {
  vmp::util::Rng rng(seed);
  std::vector<double> standalone(n);
  for (double& w : standalone) w = rng.uniform(5.0, 15.0);
  std::vector<double> worth(std::size_t{1} << n, 0.0);
  for (std::size_t mask = 1; mask < worth.size(); ++mask) {
    double sum = 0.0;
    int members = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (std::size_t{1} << i)) {
        sum += standalone[i];
        ++members;
      }
    // 3 % pairwise contention decline.
    worth[mask] = sum * (1.0 - 0.03 * (members - 1));
  }
  return worth;
}

void BM_ExactShapley(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto table = make_game_table(n, 42);
  const WorthFn v = [&](Coalition s) { return table[s.mask()]; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmp::core::shapley_values(n, v));
  }
  state.SetComplexityN(static_cast<std::int64_t>(1) << n);
}
BENCHMARK(BM_ExactShapley)->DenseRange(2, 16, 2)->Complexity(benchmark::oN);

// --- fast kernels ------------------------------------------------------------
//
// The accelerations from the metering hot path: symmetry-collapsed
// enumeration (compositions instead of masks when VMs duplicate), and the
// estimator-level tick that stacks it on the batched worth evaluator.

vmp::core::SymmetryGroups make_groups(std::size_t n, std::size_t n_groups) {
  vmp::core::SymmetryGroups groups;
  groups.group_of.resize(n);
  groups.members.resize(n_groups);
  for (std::size_t i = 0; i < n; ++i) {
    groups.group_of[i] = i % n_groups;
    groups.members[i % n_groups].push_back(static_cast<vmp::core::Player>(i));
  }
  return groups;
}

void BM_CollapsedShapley(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto types = static_cast<std::size_t>(state.range(1));
  const auto groups = make_groups(n, types);
  // Same game law as BM_ExactShapley, restated over groups so it is
  // symmetric within each: standalone sum with 3 % pairwise contention.
  vmp::util::Rng rng(42);
  std::vector<double> standalone(types);
  for (double& w : standalone) w = rng.uniform(5.0, 15.0);
  const WorthFn v = [&](Coalition s) {
    double sum = 0.0;
    int members = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (s.contains(static_cast<vmp::core::Player>(i))) {
        sum += standalone[groups.group_of[i]];
        ++members;
      }
    return members == 0 ? 0.0 : sum * (1.0 - 0.03 * (members - 1));
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(vmp::core::shapley_values_grouped(groups, v));
  }
}
BENCHMARK(BM_CollapsedShapley)
    ->ArgsProduct({{8, 12, 16}, {2, 4}})
    ->ArgNames({"n", "types"});

/// BM_EstimatorTick's game: a fitted 4-type approximation of the additive
/// law 9/7/5/3 W per unit cpu, and n VMs of types i % 4. sym=true repeats one
/// state per type; otherwise every VM draws its own.
struct FourTypeHost {
  static constexpr std::size_t kTypes = 4;

  static vmp::core::VhcLinearApprox fit(vmp::util::Rng& rng) {
    vmp::core::VscTable table(kTypes, 0.01);
    const double law[kTypes] = {9.0, 7.0, 5.0, 3.0};
    for (vmp::core::VhcComboMask combo = 1; combo < (1u << kTypes); ++combo) {
      for (int s = 0; s < 120; ++s) {
        std::vector<vmp::common::StateVector> states(kTypes);
        double power = 0.0;
        for (std::size_t j = 0; j < kTypes; ++j) {
          if (((combo >> j) & 1u) == 0) continue;
          const double cpu = rng.uniform(0.0, 2.0);
          states[j] = vmp::common::StateVector::cpu_only(cpu);
          power += law[j] * cpu;
        }
        table.record(combo, states, power);
      }
    }
    return vmp::core::VhcLinearApprox::fit(table);
  }

  FourTypeHost(std::size_t n, bool symmetric) : vms(n) {
    for (std::size_t i = 0; i < n; ++i) {
      vms[i].vm_id = static_cast<std::uint32_t>(i);
      vms[i].type = static_cast<vmp::common::VmTypeId>(i % kTypes);
      vms[i].state = vmp::common::StateVector::cpu_only(
          symmetric ? 0.2 + 0.15 * static_cast<double>(i % kTypes)
                    : rng.uniform(0.05, 1.0));
    }
  }

  vmp::util::Rng rng{7};  // draws the table first, then the states.
  vmp::core::VhcUniverse universe{{0, 1, 2, 3}};
  vmp::core::VhcLinearApprox approx = fit(rng);
  std::vector<vmp::core::VmSample> vms;
};

void BM_EstimatorTick(benchmark::State& state) {
  // One full ShapleyVhcEstimator::estimate() call — the per-tick cost every
  // host agent pays. sym=1 duplicates states within each of the 4 VM types,
  // so the estimator takes the collapsed path; sym=0 forces distinct states
  // and times the batched mask sweep.
  const FourTypeHost host(static_cast<std::size_t>(state.range(0)),
                          state.range(1) != 0);
  vmp::core::ShapleyVhcEstimator estimator(host.universe, host.approx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(host.vms, 50.0));
  }
}
BENCHMARK(BM_EstimatorTick)
    ->ArgsProduct({{8, 12, 16}, {0, 1}})
    ->ArgNames({"n", "sym"});

void BM_EstimatorTickTypeSet(benchmark::State& state) {
  // The same 4-type game with distinct states on the type-set kernel: the
  // tier auto mode picks past 2^16 compositions (here n > 16), forced at
  // n = 16 too. Its cost is the contribution table plus the 2^4 VHC sets.
  const FourTypeHost host(static_cast<std::size_t>(state.range(0)), false);
  vmp::core::ShapleyVhcEstimator estimator(host.universe, host.approx);
  estimator.set_kernel(vmp::core::ShapleyKernel::kTypeSet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(host.vms, 50.0));
  }
}
BENCHMARK(BM_EstimatorTickTypeSet)->Arg(16)->Arg(32)->Arg(64);

/// tick-mixed8's host, n VMs of three types (4 + 2 + 2 at n = 8, one of
/// type 0 and one of type 2 at n = 2), or n VMs of one type, behind the
/// Fig. 8 table. The table is dense and
/// CPU-only, like the training campaign's: every combo recorded at 400 CPU
/// utilizations up to each VHC's member count. With memory-bearing states
/// (SPEC-like) no per-VHC aggregate is in it; with CPU-only ones nearly
/// every one is.
struct MixedHost {
  static constexpr std::size_t kTypes = 3;

  MixedHost(std::size_t n, bool cpu_only, bool one_type) : vms(n) {
    std::size_t members[kTypes] = {};
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t type =
          (one_type || i < n / 2) ? 0 : i < 3 * n / 4 ? 1 : 2;
      ++members[type];
      vms[i].vm_id = static_cast<std::uint32_t>(i);
      vms[i].type = static_cast<vmp::common::VmTypeId>(type);
      vms[i].state = vmp::common::StateVector::cpu_only(rng.uniform(0.05, 1.0));
      if (!cpu_only) {
        vms[i].state[vmp::common::Component::kMemory] = rng.uniform(0.08, 0.42);
        vms[i].state[vmp::common::Component::kDiskIo] = 0.01;
      }
    }
    const double law[kTypes] = {9.0, 7.0, 5.0};
    for (vmp::core::VhcComboMask combo = 1; combo < (1u << kTypes); ++combo) {
      for (int s = 0; s < 400; ++s) {
        std::vector<vmp::common::StateVector> states(kTypes);
        double power = 0.0;
        for (std::size_t j = 0; j < kTypes; ++j) {
          if (((combo >> j) & 1u) == 0) continue;
          const double cpu =
              rng.uniform(0.0, static_cast<double>(members[j]));
          states[j] = vmp::common::StateVector::cpu_only(cpu);
          power += law[j] * cpu;
        }
        table.record(combo, states, power);
      }
    }
  }

  vmp::util::Rng rng{11};  // draws the states first, then the table.
  vmp::core::VhcUniverse universe{{0, 1, 2}};
  std::vector<vmp::core::VmSample> vms;
  vmp::core::VscTable table{kTypes, 0.01};
};

/// One estimate() on the table-backed sweep, the path every fleet host
/// runs. hits:0 has no member subset the table may hold, so no coalition
/// is looked up, at 21 subset checks for 4 + 2 + 2 VMs, 255 for 8 VMs of
/// one type and 2 for a 2-VM host; hits:1 has one in every VHC, so every
/// coalition is, as without the checks.
void table_tick(benchmark::State& state, bool one_type) {
  const MixedHost host(static_cast<std::size_t>(state.range(0)),
                       state.range(1) != 0, one_type);
  vmp::core::ShapleyVhcEstimator estimator(
      host.universe, vmp::core::VhcLinearApprox::fit(host.table), host.table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(host.vms, 50.0));
  }
  state.counters["probes_per_tick"] =
      static_cast<double>(estimator.table_probes()) /
      static_cast<double>(state.iterations());
  state.counters["hit_rate"] = estimator.table_hit_rate();
}

void BM_EstimatorTickTable(benchmark::State& state) {
  table_tick(state, false);
}
BENCHMARK(BM_EstimatorTickTable)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->ArgNames({"n", "hits"});

void BM_EstimatorTickTableOneType(benchmark::State& state) {
  table_tick(state, true);
}
BENCHMARK(BM_EstimatorTickTableOneType)->Args({8, 0})->ArgNames({"n", "hits"});

void BM_ShapleyWeights(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t s = 0; s < n; ++s)
      sum += vmp::core::shapley_weight(n, s);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ShapleyWeights)->Arg(16)->Arg(30);

void BM_SubsetEnumeration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Coalition grand = Coalition::grand(n);
  for (auto _ : state) {
    std::size_t count = 0;
    vmp::core::for_each_subset(grand, [&](Coalition) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SubsetEnumeration)->DenseRange(8, 20, 4);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("build_type", vmp::bench::kBuildType);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
