#include "util/quantile_sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

namespace vmp::util {
namespace {

/// The sketch's relative accuracy, α = (γ − 1)/(γ + 1) with γ = 2^(1/32).
const double kAlpha =
    (std::exp2(1.0 / QuantileSketch::kBucketsPerOctave) - 1.0) /
    (std::exp2(1.0 / QuantileSketch::kBucketsPerOctave) + 1.0);

/// Exact quantile of a sorted sample, matching the sketch's rank convention
/// (rank = floor(q * (n - 1))).
double sorted_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1));
  return values[rank];
}

/// |estimate - truth| <= alpha * truth — the sketch's advertised bound.
void expect_within_alpha(double estimate, double truth) {
  EXPECT_LE(std::abs(estimate - truth), kAlpha * truth + 1e-12)
      << "estimate " << estimate << " vs truth " << truth;
}

TEST(QuantileSketch, EmptySketchReportsZeroes) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.sum(), 0.0);
  EXPECT_EQ(sketch.count_at_or_below_pow2(0), 0u);
}

TEST(QuantileSketch, AccuracyIsOnePointZeroEightPercent) {
  EXPECT_NEAR(kAlpha, 0.010830, 1e-6);
}

TEST(QuantileSketch, SingleValueIsReturnedWithinRelativeError) {
  QuantileSketch sketch;
  sketch.record(0.125);
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    expect_within_alpha(sketch.quantile(q), 0.125);
  EXPECT_DOUBLE_EQ(sketch.max(), 0.125);
  EXPECT_EQ(sketch.count(), 1u);
}

TEST(QuantileSketch, UniformStreamQuantilesWithinAlphaOfSortedReference) {
  QuantileSketch sketch;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> uniform(1e-4, 2.0);
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double value = uniform(rng);
    values.push_back(value);
    sketch.record(value);
  }
  for (const double q : {0.01, 0.10, 0.50, 0.90, 0.99, 0.999})
    expect_within_alpha(sketch.quantile(q), sorted_quantile(values, q));
}

TEST(QuantileSketch, StageLikeHeavyTailKeepsRelativeAccuracyAtBothEnds) {
  // Serve-stage shape: most probes are sub-microsecond, a tail of coalesce
  // holds reaches seconds — six orders of magnitude in one stream. A fixed
  // bucket layout would lose one end; the log sketch must hold both.
  QuantileSketch sketch;
  std::mt19937_64 rng(13);
  std::lognormal_distribution<double> lognormal(-13.0, 3.0);
  std::vector<double> values;
  values.reserve(30000);
  for (int i = 0; i < 30000; ++i) {
    const double value = lognormal(rng);
    values.push_back(value);
    sketch.record(value);
  }
  for (const double q : {0.01, 0.50, 0.99})
    expect_within_alpha(sketch.quantile(q), sorted_quantile(values, q));
}

TEST(QuantileSketch, ZeroAndNegativeValuesLandInZeroBucket) {
  QuantileSketch sketch;
  sketch.record(0.0);
  sketch.record(-1.0);                            // defensive clamp.
  sketch.record(QuantileSketch::kMinTrackable);   // at the boundary.
  sketch.record(1.0);
  EXPECT_EQ(sketch.count(), 4u);
  // Three of four values are in the zero bucket: p50 must report 0.
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  expect_within_alpha(sketch.quantile(1.0), 1.0);
  // The zero bucket counts at or below every edge, the store's lowest too.
  EXPECT_EQ(sketch.count_at_or_below_pow2(QuantileSketch::kMinExponent), 3u);
  EXPECT_EQ(sketch.count_at_or_below_pow2(-1), 3u);
  EXPECT_EQ(sketch.count_at_or_below_pow2(0), 4u);
}

TEST(QuantileSketch, NanIsClampedNotPropagated) {
  QuantileSketch sketch;
  sketch.record(std::nan(""));
  sketch.record(2.0);
  EXPECT_EQ(sketch.count(), 2u);
  EXPECT_FALSE(std::isnan(sketch.quantile(0.5)));
  expect_within_alpha(sketch.quantile(1.0), 2.0);
}

TEST(QuantileSketch, EveryPowerOfTwoIsAnExactBucketEdge) {
  // A value exactly at 2^k counts at 2^k and not at 2^(k−1); the doubles
  // just below and just above it land on either side of the edge.
  for (int k = QuantileSketch::kMinExponent + 1;
       k < QuantileSketch::kMaxExponent; ++k) {
    const double edge = std::ldexp(1.0, k);
    QuantileSketch at, below, above;
    at.record(edge);
    below.record(std::nextafter(edge, 0.0));
    above.record(std::nextafter(edge, 1e9));
    EXPECT_EQ(at.count_at_or_below_pow2(k), 1u) << k;
    EXPECT_EQ(at.count_at_or_below_pow2(k - 1), 0u) << k;
    EXPECT_EQ(below.count_at_or_below_pow2(k), 1u) << k;
    EXPECT_EQ(below.count_at_or_below_pow2(k - 1), 0u) << k;
    EXPECT_EQ(above.count_at_or_below_pow2(k), 0u) << k;
    if (k + 1 < QuantileSketch::kMaxExponent) {
      EXPECT_EQ(above.count_at_or_below_pow2(k + 1), 1u) << k;
    }
  }
  QuantileSketch lowest;  // just above the zero bucket.
  lowest.record(std::nextafter(QuantileSketch::kMinTrackable, 1.0));
  EXPECT_EQ(lowest.count_at_or_below_pow2(QuantileSketch::kMinExponent), 0u);
  EXPECT_EQ(lowest.count_at_or_below_pow2(QuantileSketch::kMinExponent + 1),
            1u);
  EXPECT_THROW((void)lowest.count_at_or_below_pow2(QuantileSketch::kMinExponent - 1),
               std::out_of_range);
  EXPECT_THROW((void)lowest.count_at_or_below_pow2(QuantileSketch::kMaxExponent),
               std::out_of_range);
}

TEST(QuantileSketch, CountsAtEdgesMatchAReferenceCount) {
  QuantileSketch sketch;
  std::mt19937_64 rng(41);
  std::lognormal_distribution<double> lognormal(-12.0, 4.0);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double value = lognormal(rng);
    values.push_back(value);
    sketch.record(value);
  }
  for (int k = QuantileSketch::kMinExponent; k < QuantileSketch::kMaxExponent;
       ++k) {
    const double edge = std::ldexp(1.0, k);
    const auto expected = static_cast<std::uint64_t>(std::count_if(
        values.begin(), values.end(), [&](double v) { return v <= edge; }));
    EXPECT_EQ(sketch.count_at_or_below_pow2(k), expected) << k;
  }
}

TEST(QuantileSketch, ValuesAboveTheRangeClampIntoTheLastBucketReadAsMax) {
  QuantileSketch sketch;
  const double top = std::ldexp(1.0, QuantileSketch::kMaxExponent);
  sketch.record(0.5);
  sketch.record(3.0 * top);
  sketch.record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_EQ(sketch.count_at_or_below_pow2(QuantileSketch::kMaxExponent - 1),
            1u);
  EXPECT_EQ(sketch.max(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(sketch.quantile(1.0), sketch.max());
  expect_within_alpha(sketch.quantile(0.0), 0.5);
  QuantileSketch finite;
  finite.record(3.0 * top);
  EXPECT_DOUBLE_EQ(finite.quantile(0.5), 3.0 * top);
}

TEST(QuantileSketch, MergeEqualsFeedingOneSketch) {
  QuantileSketch merged, reference;
  QuantileSketch parts[3];
  std::mt19937_64 rng(23);
  std::exponential_distribution<double> exponential(50.0);
  for (int i = 0; i < 9000; ++i) {
    const double value = exponential(rng);
    reference.record(value);
    parts[i % 3].record(value);
  }
  for (const QuantileSketch& part : parts) merged.merge(part);
  EXPECT_EQ(merged.count(), reference.count());
  // Sums reassociate across the partition, so bit-equality is too strict.
  EXPECT_NEAR(merged.sum(), reference.sum(), 1e-9 * reference.sum());
  EXPECT_DOUBLE_EQ(merged.max(), reference.max());
  // Merge is exact (no re-bucketing): quantiles match to the bit, not just
  // within alpha.
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(merged.quantile(q), reference.quantile(q)) << q;
  for (int k = -20; k < 0; ++k)
    EXPECT_EQ(merged.count_at_or_below_pow2(k),
              reference.count_at_or_below_pow2(k)) << k;
}

TEST(QuantileSketch, MergeIsAssociative) {
  QuantileSketch a, b, c;
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> uniform(1e-6, 10.0);
  for (int i = 0; i < 2000; ++i) a.record(uniform(rng));
  for (int i = 0; i < 3000; ++i) b.record(uniform(rng));
  for (int i = 0; i < 1000; ++i) c.record(uniform(rng));

  QuantileSketch left(a);   // (a + b) + c
  left.merge(b);
  left.merge(c);
  QuantileSketch bc(b);     // a + (b + c)
  bc.merge(c);
  QuantileSketch right(a);
  right.merge(bc);

  EXPECT_EQ(left.count(), right.count());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(left.quantile(q), right.quantile(q)) << q;
}

TEST(QuantileSketch, MergeIntoAndFromAnUntrackedSketch) {
  // A sketch that only saw zeros has no store yet; merging either way must
  // still add every count.
  QuantileSketch zeros, values;
  zeros.record(0.0);
  values.record(0.001);
  QuantileSketch left(zeros);
  left.merge(values);
  QuantileSketch right(values);
  right.merge(zeros);
  for (const QuantileSketch* sketch : {&left, &right}) {
    EXPECT_EQ(sketch->count(), 2u);
    EXPECT_EQ(sketch->count_at_or_below_pow2(-9), 2u);  // 2^-9 ≈ 0.00195.
    EXPECT_EQ(sketch->count_at_or_below_pow2(-10), 1u);
  }
}

}  // namespace
}  // namespace vmp::util
