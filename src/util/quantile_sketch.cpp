#include "util/quantile_sketch.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace vmp::util {

void QuantileSketch::record(double value) {
  ++count_;
  if (!(value > kMinTrackable)) {  // catches <=, NaN, and negatives.
    ++zero_count_;
    return;
  }
  sum_ += value;
  if (value > max_) max_ = value;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  if (!(value <= kMaxTrackable)) {
    ++counts_.back();
    return;
  }
  // frexp splits the value exactly into mantissa · 2^exponent with the
  // mantissa in [0.5, 1), so ceil(32 log2 mantissa) is in [−32, 0] and is −32
  // exactly when the value is a power of two: a power of two lands on its
  // own bucket's upper edge, and the next double up one bucket higher.
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);
  const int index = kBucketsPerOctave * exponent +
                    static_cast<int>(std::ceil(kBucketsPerOctave *
                                               std::log2(mantissa)));
  ++counts_[static_cast<std::size_t>(index - kFirstIndex)];
}

void QuantileSketch::merge(const QuantileSketch& other) {
  count_ += other.count_;
  zero_count_ += other.zero_count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
  if (other.counts_.empty()) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  for (std::size_t s = 0; s < counts_.size(); ++s)
    counts_[s] += other.counts_[s];
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the requested quantile among all recorded values, zero bucket
  // first (its values are the smallest by construction).
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  if (rank < zero_count_) return 0.0;
  std::uint64_t cumulative = zero_count_;
  for (std::size_t s = 0; s + 1 < counts_.size(); ++s) {
    cumulative += counts_[s];
    if (cumulative > rank) {
      // Midpoint of the bucket (γ^(i−1), γ^i] in log space, 2γ^i/(γ + 1):
      // the canonical DDSketch estimate, whose worst-case relative error is
      // α at either bucket edge.
      static const double kGamma = std::exp2(1.0 / kBucketsPerOctave);
      const int index = static_cast<int>(s) + kFirstIndex;
      return 2.0 * std::exp2(static_cast<double>(index) / kBucketsPerOctave) /
             (kGamma + 1.0);
    }
  }
  return max_;  // the last bucket, which also holds the clamped values.
}

std::uint64_t QuantileSketch::count_at_or_below_pow2(int exponent) const {
  if (exponent < kMinExponent || exponent >= kMaxExponent)
    throw std::out_of_range("QuantileSketch: no exact count at 2^" +
                            std::to_string(exponent));
  std::uint64_t cumulative = zero_count_;
  if (counts_.empty()) return cumulative;
  // The store's buckets up to 32·exponent, whose upper edge is 2^exponent.
  const auto end =
      static_cast<std::size_t>(kBucketsPerOctave * (exponent - kMinExponent));
  for (std::size_t s = 0; s < end; ++s) cumulative += counts_[s];
  return cumulative;
}

}  // namespace vmp::util
