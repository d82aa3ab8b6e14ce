// A warmed-up metering tick allocates only its result: after one tick of a
// host, every ShapleyVhcEstimator::estimate() call makes exactly one heap
// allocation, the φ vector it returns. This binary replaces the global
// operator new and delete with counting versions to observe that.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Out of line: GCC otherwise inlines free() next to a call it takes for the
// standard operator new and warns about a mismatched pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vmp::core {
namespace {

using common::StateVector;
using common::VmSample;

constexpr std::size_t kTypes = 4;

/// Every combo of the four VHCs fitted to its own random weights.
VhcLinearApprox four_type_approx(util::Rng& rng) {
  std::vector<VhcLinearApprox::ComboModelData> models;
  for (VhcComboMask combo = 1; combo < (VhcComboMask{1} << kTypes); ++combo) {
    VhcLinearApprox::ComboModelData model{
        combo, std::vector<double>(kTypes * common::kNumComponents, 0.0), 0.0,
        50};
    for (std::size_t j = 0; j < kTypes; ++j)
      if (((combo >> j) & 1u) != 0)
        for (std::size_t c = 0; c < common::kNumComponents; ++c)
          model.weights[j * common::kNumComponents + c] =
              rng.uniform(1.0, 20.0);
    models.push_back(std::move(model));
  }
  return VhcLinearApprox::from_models(kTypes, models);
}

/// One tick of telemetry: every VM busy with a fresh SPEC-like state.
std::vector<VmSample> tick_of(const std::vector<common::VmTypeId>& types,
                              util::Rng& rng) {
  std::vector<VmSample> vms;
  for (std::size_t i = 0; i < types.size(); ++i) {
    StateVector state = StateVector::cpu_only(rng.uniform(0.05, 1.0));
    state[common::Component::kMemory] = rng.uniform(0.08, 0.42);
    state[common::Component::kDiskIo] = 0.01;
    vms.push_back({static_cast<std::uint32_t>(i), types[i], state});
  }
  return vms;
}

TEST(EstimatorAllocations, WarmTickAllocatesOnlyItsResult) {
  util::Rng rng(21);
  const VhcUniverse universe({0, 1, 2, 3});
  const VhcLinearApprox approx = four_type_approx(rng);
  using Types = std::vector<common::VmTypeId>;
  Types sixty_four(64);
  for (std::size_t i = 0; i < sixty_four.size(); ++i)
    sixty_four[i] = static_cast<common::VmTypeId>(i % kTypes);
  for (const Types& types :
       {Types{0, 0, 0, 0, 1, 1, 2, 2}, Types{0, 2}, sixty_four}) {
    for (const bool anchor : {true, false}) {
      const std::string label = std::to_string(types.size()) +
                                " VMs, anchor=" + std::to_string(anchor);
      ShapleyVhcEstimator estimator(universe, approx, anchor);
      (void)estimator.estimate(tick_of(types, rng), 60.0);  // warm-up.
      for (int tick = 0; tick < 5; ++tick) {
        const auto vms = tick_of(types, rng);
        const double measured = rng.uniform(10.0, 90.0);
        const std::size_t before = g_allocations.load();
        const auto phi = estimator.estimate(vms, measured);
        const std::size_t made = g_allocations.load() - before;
        EXPECT_EQ(made, 1u) << label << ", tick " << tick;
        EXPECT_EQ(phi.size(), types.size()) << label;
      }
    }
  }
}

}  // namespace
}  // namespace vmp::core
