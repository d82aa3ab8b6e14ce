// Microbenchmarks for the paper's Sec. V-B complexity analysis.
//
// Exact Shapley needs 2^n worth evaluations; the paper argues n <= 16 on
// real hosts, so the overhead is "very low" (2^16 = 65536 operations). These
// benchmarks quantify that claim on this implementation and measure the two
// escape hatches for larger games: the stratified sampled tier and the VHC
// estimator whose cost is 2^n table lookups but whose *measurement* cost is
// only 2^r. The JSON context records vmpower's own build type as
// "build_type"; google-benchmark's "library_build_type" describes the
// installed benchmark library, not this code.
// Beyond the registered microbenchmarks, `--sampled-curves [--quick]
// [--out FILE]` runs the exact-vs-sampled accuracy/latency sweep (n = 8..64
// on an all-distinct worst-case game) and emits a {"sampled_curves": [...]}
// JSON document for BENCH_shapley.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/state_vector.hpp"
#include "core/estimator.hpp"
#include "core/linear_approx.hpp"
#include "core/shapley.hpp"
#include "core/shapley_fast.hpp"
#include "core/shapley_sampled.hpp"
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

void BM_EstimatorTick(benchmark::State& state) {
  // One full ShapleyVhcEstimator::estimate() call — the per-tick cost every
  // host agent pays. sym=1 duplicates states within each of the 4 VM types,
  // so the estimator takes the collapsed path; sym=0 forces distinct states
  // and times the batched mask sweep.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool symmetric = state.range(1) != 0;
  constexpr std::size_t kTypes = 4;

  vmp::util::Rng rng(7);
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
  const auto approx = vmp::core::VhcLinearApprox::fit(table);
  const vmp::core::VhcUniverse universe({0, 1, 2, 3});

  std::vector<vmp::core::VmSample> vms(n);
  for (std::size_t i = 0; i < n; ++i) {
    vms[i].vm_id = static_cast<std::uint32_t>(i);
    vms[i].type = static_cast<vmp::common::VmTypeId>(i % kTypes);
    vms[i].state = vmp::common::StateVector::cpu_only(
        symmetric ? 0.2 + 0.15 * static_cast<double>(i % kTypes)
                  : rng.uniform(0.05, 1.0));
  }

  vmp::core::ShapleyVhcEstimator estimator(universe, approx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(vms, 50.0));
  }
}
BENCHMARK(BM_EstimatorTick)
    ->ArgsProduct({{8, 12, 16}, {0, 1}})
    ->ArgNames({"n", "sym"});

// --- sampled tier ------------------------------------------------------------
//
// The same contention game stated in closed form, so it evaluates at any n
// up to kMaxSampledPlayers without a 2^n table — the all-distinct worst case
// where every exact kernel degenerates. Its Shapley value is also closed
// form (the game is a sum of one-player games a_i·1(i∈S)·f(|S|) with
// f(s) = 1 − 0.03(s−1)):
//
//   φ_i = a_i (1 − 0.03 (n−1)/2) − 0.015 (A − a_i),  A = Σ_j a_j,
//
// which gives every curve an exact error reference even at n = 64.
struct ClosedFormGame {
  std::vector<double> standalone;

  explicit ClosedFormGame(std::size_t n, std::uint64_t seed) : standalone(n) {
    vmp::util::Rng rng(seed);
    for (double& w : standalone) w = rng.uniform(5.0, 15.0);
  }

  [[nodiscard]] double worth(std::uint64_t members) const {
    double sum = 0.0;
    int count = 0;
    for (std::uint64_t m = members; m != 0; m &= m - 1) {
      sum += standalone[static_cast<std::size_t>(std::countr_zero(m))];
      ++count;
    }
    return count == 0 ? 0.0 : sum * (1.0 - 0.03 * (count - 1));
  }

  [[nodiscard]] std::vector<double> exact_shapley() const {
    const std::size_t n = standalone.size();
    const double total =
        std::accumulate(standalone.begin(), standalone.end(), 0.0);
    std::vector<double> phi(n);
    for (std::size_t i = 0; i < n; ++i)
      phi[i] = standalone[i] *
                   (1.0 - 0.03 * static_cast<double>(n - 1) / 2.0) -
               0.015 * (total - standalone[i]);
    return phi;
  }
};

void BM_SampledShapley(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ClosedFormGame game(n, 42);
  const vmp::core::SampledWorthFn v = [&](std::uint64_t members) {
    return game.worth(members);
  };
  const std::uint64_t grand_mask = n == 64 ? ~0ULL : ((1ULL << n) - 1);
  const double grand = game.worth(grand_mask);
  vmp::core::SampledShapleyOptions options;
  options.max_samples = 20'000;
  vmp::core::SampledShapley solver;
  std::uint64_t tick = 0;
  for (auto _ : state) {
    options.seed = ++tick;
    benchmark::DoNotOptimize(solver.run(n, v, grand, options));
  }
}
BENCHMARK(BM_SampledShapley)->Arg(16)->Arg(32)->Arg(64);

void BM_EstimatorTickSampled(benchmark::State& state) {
  // The full per-tick estimator cost on the sampled tier: an all-distinct
  // host that auto mode would route here anyway at n > 16.
  const auto n = static_cast<std::size_t>(state.range(0));
  vmp::util::Rng rng(7);
  vmp::core::VscTable table(1, 0.01);
  for (int s = 0; s < 200; ++s) {
    const double cpu = rng.uniform(0.0, 2.0);
    table.record(0b1, {{vmp::common::StateVector::cpu_only(cpu)}}, 10.0 * cpu);
  }
  const auto approx = vmp::core::VhcLinearApprox::fit(table);

  std::vector<vmp::core::VmSample> vms(n);
  double total_cpu = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    vms[i].vm_id = static_cast<std::uint32_t>(i);
    vms[i].type = 0;
    const double cpu = 0.1 + 0.013 * static_cast<double>(i);
    vms[i].state = vmp::common::StateVector::cpu_only(cpu);
    total_cpu += cpu;
  }

  vmp::core::ShapleyVhcEstimator estimator(vmp::core::VhcUniverse({0}),
                                           approx);
  vmp::core::SampledKernelConfig config;
  config.kernel = vmp::core::SampledKernelConfig::Kernel::kSampled;
  config.sampling.max_samples = 20'000;
  estimator.set_sampled_kernel(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(vms, 10.0 * total_cpu));
  }
}
BENCHMARK(BM_EstimatorTickSampled)->Arg(16)->Arg(32)->Arg(64);

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

// --- exact-vs-sampled curves (--sampled-curves) ------------------------------

double percentile50(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

/// One row of the curve: accuracy and latency of the sampled tier at one n,
/// with the exact mask-solver latency where it is still tractable.
struct CurvePoint {
  std::size_t n = 0;
  std::size_t ticks = 0;
  double sampled_p50_ms = 0.0;
  double exact_p50_ms = -1.0;  ///< -1: exact intractable at this n.
  double mean_max_abs_err_w = 0.0;
  double mean_max_halfwidth_w = 0.0;
  double ci_coverage = 0.0;  ///< fraction of ticks with every VM inside CI.
  double mean_evals = 0.0;
};

CurvePoint run_curve_point(std::size_t n, std::size_t ticks) {
  const ClosedFormGame game(n, 42);
  const vmp::core::SampledWorthFn v = [&](std::uint64_t members) {
    return game.worth(members);
  };
  const std::uint64_t grand_mask = n == 64 ? ~0ULL : ((1ULL << n) - 1);
  const double grand = game.worth(grand_mask);
  const auto exact = game.exact_shapley();

  CurvePoint point;
  point.n = n;
  point.ticks = ticks;

  vmp::core::SampledShapleyOptions options;
  options.max_samples = 20'000;
  vmp::core::SampledShapley solver;
  std::vector<double> latencies_ms;
  std::size_t covered = 0;
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    options.seed = 1000 * n + tick + 1;
    const auto start = std::chrono::steady_clock::now();
    const auto result = solver.run(n, v, grand, options);
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());

    double max_err = 0.0;
    bool inside = true;
    // The efficiency shift moves every player by at most gap/n, itself
    // inside sum_halfwidth/n — the same slack the tests allow.
    const double shift_slack =
        result.sum_halfwidth_w / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double err = std::abs(result.phi[i] - exact[i]);
      max_err = std::max(max_err, err);
      inside = inside && err <= result.halfwidth_w[i] + shift_slack;
    }
    covered += inside;
    point.mean_max_abs_err_w += max_err / static_cast<double>(ticks);
    point.mean_max_halfwidth_w +=
        result.max_halfwidth_w / static_cast<double>(ticks);
    point.mean_evals +=
        static_cast<double>(result.worth_evaluations) /
        static_cast<double>(ticks);
  }
  point.sampled_p50_ms = percentile50(latencies_ms);
  point.ci_coverage =
      static_cast<double>(covered) / static_cast<double>(ticks);

  // Exact reference latency: tractable through n = 20 (2^20 masks); past
  // that the whole point of the sampled tier is that exact never returns.
  if (n <= 20) {
    const vmp::core::WorthFn exact_v = [&](vmp::core::Coalition s) {
      return game.worth(s.mask());
    };
    std::vector<double> exact_ms;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(vmp::core::shapley_values(n, exact_v));
      exact_ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    }
    point.exact_p50_ms = percentile50(exact_ms);
  }
  return point;
}

int run_sampled_curves(bool quick, const std::string& out_path) {
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{8, 16, 32, 64}
            : std::vector<std::size_t>{8, 12, 16, 20, 24, 32, 48, 64};
  const std::size_t ticks = quick ? 6 : 20;

  std::string json = "{\n  \"sampled_curves\": [\n";
  char line[512];
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    const CurvePoint p = run_curve_point(sizes[k], ticks);
    char exact_field[48];
    if (p.exact_p50_ms < 0.0) {
      std::snprintf(exact_field, sizeof exact_field, "null");
    } else {
      std::snprintf(exact_field, sizeof exact_field, "%.6f", p.exact_p50_ms);
    }
    std::snprintf(
        line, sizeof line,
        "    {\"n\": %zu, \"ticks\": %zu, \"max_samples\": 20000, "
        "\"sampled_p50_ms\": %.6f, \"exact_p50_ms\": %s, "
        "\"mean_max_abs_err_w\": %.6f, \"mean_max_halfwidth_w\": %.6f, "
        "\"ci_coverage\": %.4f, \"mean_evals\": %.1f}%s\n",
        p.n, p.ticks, p.sampled_p50_ms, exact_field, p.mean_max_abs_err_w,
        p.mean_max_halfwidth_w, p.ci_coverage, p.mean_evals,
        k + 1 < sizes.size() ? "," : "");
    json += line;
    std::fprintf(stderr,
                 "n=%zu sampled_p50=%.3fms exact_p50=%sms err=%.4fW "
                 "halfwidth=%.4fW coverage=%.0f%%\n",
                 p.n, p.sampled_p50_ms, exact_field, p.mean_max_abs_err_w,
                 p.mean_max_halfwidth_w, 100.0 * p.ci_coverage);
  }
  json += "  ]\n}\n";

  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::FILE* file = std::fopen(out_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), file);
  std::fclose(file);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool curves = false;
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sampled-curves") == 0) {
      curves = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (curves) return run_sampled_curves(quick, out_path);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("build_type", vmp::bench::kBuildType);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
