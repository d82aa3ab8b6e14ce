#include "core/vsc_table.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/serialization.hpp"
#include "util/rng.hpp"

namespace vmp::core {
namespace {

using common::StateVector;

std::vector<StateVector> one_state(double cpu) {
  return {StateVector::cpu_only(cpu)};
}

TEST(VscTable, ConstructionValidation) {
  EXPECT_THROW(VscTable(0), std::invalid_argument);
  EXPECT_THROW(VscTable(VhcUniverse::kMaxVhcs + 1), std::invalid_argument);
  EXPECT_THROW(VscTable(2, 0.0), std::invalid_argument);
  const VscTable table(2, 0.05);
  EXPECT_EQ(table.num_vhcs(), 2u);
  EXPECT_DOUBLE_EQ(table.resolution(), 0.05);
}

TEST(VscTable, RecordAndLookupExactState) {
  VscTable table(1, 0.01);
  table.record(0b1, one_state(0.50), 6.5);
  EXPECT_EQ(table.total_samples(), 1u);
  const auto hit = table.lookup(0b1, one_state(0.50));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 6.5);
}

TEST(VscTable, QuantizationMergesNearbyStates) {
  VscTable table(1, 0.01);
  table.record(0b1, one_state(0.502), 6.0);   // quantizes to 0.50
  table.record(0b1, one_state(0.498), 8.0);   // quantizes to 0.50
  const auto hit = table.lookup(0b1, one_state(0.5004));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 7.0);  // mean of the matching samples
}

TEST(VscTable, UnobservedStateReturnsNothing) {
  VscTable table(1, 0.01);
  table.record(0b1, one_state(0.50), 6.5);
  EXPECT_FALSE(table.lookup(0b1, one_state(0.80)).has_value());
  EXPECT_FALSE(table.lookup(0b1, one_state(0.52)).has_value());
}

TEST(VscTable, CombosAreIndependent) {
  VscTable table(2, 0.01);
  table.record(0b01, std::vector<StateVector>{StateVector::cpu_only(0.5), StateVector::zero()}, 5.0);
  table.record(0b10, std::vector<StateVector>{StateVector::zero(), StateVector::cpu_only(0.5)}, 9.0);
  EXPECT_FALSE(
      table.lookup(0b01, std::vector<StateVector>{StateVector::zero(), StateVector::cpu_only(0.5)})
          .has_value());
  EXPECT_EQ(table.samples(0b01).size(), 1u);
  EXPECT_EQ(table.samples(0b10).size(), 1u);
  EXPECT_TRUE(table.samples(0b11).empty());
  EXPECT_EQ(table.combos().size(), 2u);
}

TEST(VscTable, RecordValidation) {
  VscTable table(1, 0.01);
  EXPECT_THROW(table.record(0b1, {}, 5.0), std::invalid_argument);
  EXPECT_THROW(table.record(0b10, one_state(0.5), 5.0), std::invalid_argument);
  EXPECT_THROW(table.record(0b1, one_state(0.5), -1.0), std::invalid_argument);
}

TEST(VscTable, LookupValidation) {
  const VscTable table(1, 0.01);
  EXPECT_THROW((void)table.lookup(0b1, {}), std::invalid_argument);
  EXPECT_THROW((void)table.lookup(0b10, one_state(0.5)), std::invalid_argument);
}

TEST(VscTable, SamplesStoreQuantizedStates) {
  VscTable table(1, 0.01);
  table.record(0b1, one_state(0.1234), 3.0);
  const auto& samples = table.samples(0b1);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0].vhc_states[0].cpu(), 0.12, 1e-12);
  EXPECT_EQ(samples[0].combo, 0b1u);
}

/// The sample scan the cell index replaced, restated with public APIs: the
/// mean, summed in record order, of the samples whose stored (quantized)
/// states lie within resolution/2 of the quantized query in every coordinate.
std::optional<double> scan_lookup(const VscTable& table, VhcComboMask combo,
                                  const std::vector<StateVector>& states) {
  const double resolution = table.resolution();
  double sum = 0.0;
  std::size_t hits = 0;
  for (const VscSample& sample : table.samples(combo)) {
    bool match = true;
    for (std::size_t j = 0; j < states.size(); ++j)
      if (sample.vhc_states[j].max_abs_diff(states[j].quantized(resolution)) >
          resolution / 2.0)
        match = false;
    if (match) {
      sum += sample.power_w;
      ++hits;
    }
  }
  if (hits == 0) return std::nullopt;
  return sum / static_cast<double>(hits);
}

struct Query {
  VhcComboMask combo = 0;
  std::vector<StateVector> states;
};

/// A point of bucket k: its centre, an edge (k ± 0.5)·resolution, one ulp
/// either side of an edge, or a random interior offset.
double point_near(util::Rng& rng, std::int64_t k, double resolution) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double centre = static_cast<double>(k);
  const double edge = (centre + (rng.bernoulli(0.5) ? 0.5 : -0.5)) * resolution;
  switch (rng.uniform_u64(5)) {
    case 0: return centre * resolution;
    case 1: return edge;
    case 2: return std::nextafter(edge, -kInf);
    case 3: return std::nextafter(edge, kInf);
    default: return (centre + rng.uniform(-0.49, 0.49)) * resolution;
  }
}

/// States of `combo` near the bucket centres in `buckets` (zero for VHCs
/// outside the combo).
std::vector<StateVector> states_near(
    util::Rng& rng, VhcComboMask combo,
    const std::vector<std::vector<std::int64_t>>& buckets, double resolution) {
  std::vector<StateVector> states(buckets.size());
  for (std::size_t j = 0; j < buckets.size(); ++j) {
    if (((combo >> j) & 1u) == 0) continue;
    for (std::size_t c = 0; c < common::kNumComponents; ++c)
      states[j][static_cast<common::Component>(c)] =
          point_near(rng, buckets[j][c], resolution);
  }
  return states;
}

void expect_lookup_equals_scan(const VscTable& table,
                               const std::vector<Query>& queries,
                               std::size_t& hits) {
  for (const Query& q : queries) {
    const auto cell = table.lookup(q.combo, q.states);
    const auto scan = scan_lookup(table, q.combo, q.states);
    ASSERT_EQ(cell.has_value(), scan.has_value()) << q.states[0].to_string();
    if (!cell.has_value()) continue;
    EXPECT_EQ(*cell, *scan) << q.states[0].to_string();
    ++hits;
  }
}

TEST(VscTable, CellLookupEqualsSampleScan) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("vmp_vsc_cells_" + std::to_string(::getpid()) + ".vsc");
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const std::size_t num_vhcs = 1 + (seed - 1) % 4;
    const double resolution = seed % 2 == 0 ? 0.01 : 0.05;
    const auto combo_count = std::uint64_t{1} << num_vhcs;
    const auto random_combo = [&] {
      return static_cast<VhcComboMask>(1 + rng.uniform_u64(combo_count - 1));
    };
    // Aggregated VHC states up to 3.0; a quarter of the coordinates sit in
    // bucket 0, whose lower edge quantizes to -0.0.
    const auto max_bucket =
        static_cast<std::int64_t>(std::round(3.0 / resolution));
    const auto random_buckets = [&] {
      std::vector<std::vector<std::int64_t>> buckets(
          num_vhcs, std::vector<std::int64_t>(common::kNumComponents));
      for (auto& vhc : buckets)
        for (auto& k : vhc)
          k = rng.bernoulli(0.25) ? 0 : rng.uniform_int(0, max_bucket);
      return buckets;
    };

    VscTable table(num_vhcs, resolution);
    std::vector<Query> queries;
    for (int cell = 0; cell < 12; ++cell) {
      const VhcComboMask combo = random_combo();
      const auto buckets = random_buckets();
      // Several samples per cell, each at or near the shared centre.
      const int samples = 2 + static_cast<int>(rng.uniform_u64(3));
      for (int s = 0; s < samples; ++s)
        table.record(combo, states_near(rng, combo, buckets, resolution),
                     rng.uniform(0.0, 100.0));
      for (int q = 0; q < 8; ++q)
        queries.push_back(
            {combo, states_near(rng, combo, buckets, resolution)});
    }
    // Fresh states, mostly in unrecorded cells or combos.
    for (int q = 0; q < 16; ++q) {
      const VhcComboMask combo = random_combo();
      queries.push_back(
          {combo, states_near(rng, combo, random_buckets(), resolution)});
    }

    std::size_t hits = 0;
    expect_lookup_equals_scan(table, queries, hits);
    EXPECT_GT(hits, 0u) << "seed " << seed;

    // The cells are rebuilt from the saved (quantized) samples on load.
    save_table(table, path);
    const VscTable loaded = load_table(path);
    std::size_t loaded_hits = 0;
    expect_lookup_equals_scan(loaded, queries, loaded_hits);
    EXPECT_EQ(loaded_hits, hits) << "seed " << seed;
  }
  std::filesystem::remove(path);
}

TEST(VscTable, AggregatedStatesBeyondOneAccepted) {
  // VHC states are sums over VMs and routinely exceed 1.0.
  VscTable table(1, 0.01);
  table.record(0b1, one_state(3.47), 45.0);
  const auto hit = table.lookup(0b1, one_state(3.47));
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 45.0);
}

}  // namespace
}  // namespace vmp::core
