// Streaming quantile sketch with relative-error guarantees (DDSketch: Masson,
// Rim and Lee, VLDB 2019), and the process's one latency-distribution type:
// the serve profiler's stage sketches and every registry histogram
// (obs::HistogramMetric) are this class.
//
// Latencies span sub-microsecond cache probes to multi-second coalesce holds,
// so any linear bucket layout is wrong for most series. A value x counts in
// the logarithmic bucket i = ceil(32 log2 x), which holds (γ^(i−1), γ^i]
// with γ = 2^(1/32). A quantile is reported at its bucket's log-midpoint
// 2γ^i/(γ + 1), within α = (γ − 1)/(γ + 1) ≈ 1.08 % of the true one: a
// *relative* bound, as tight at 800 ns as at 8 s. Since γ^32 = 2, every
// power of two is a bucket edge, so a count at or below 2^k is exact; the
// Prometheus exposition reads its `le` ladder there.
//
// The buckets are one contiguous array (DDSketch's dense store) over the 36
// octaves (2^-30, 2^6] s ≈ (0.93 ns, 64 s]: 1 152 counts, ~9 KB, allocated
// on the first value the sketch tracks. Merging adds counts; a value's
// bucket depends on the value alone, so merge is exact, associative and
// equal to having fed one sketch (the per-scrape and federation roll-ups
// rely on it).
//
// Values at or below kMinTrackable (zero too: a cache probe can take less
// than a clock tick), negatives and NaN count in a zero bucket, ranked
// first and reported as 0. Values above kMaxTrackable clamp into the last
// bucket, whose quantile reads max().
#pragma once

#include <cstdint>
#include <vector>

namespace vmp::util {

class QuantileSketch {
 public:
  /// Buckets per power of two: γ = 2^(1/kBucketsPerOctave).
  static constexpr int kBucketsPerOctave = 32;
  /// The store covers (2^kMinExponent, 2^kMaxExponent] seconds, that is
  /// (kMinTrackable, kMaxTrackable].
  static constexpr int kMinExponent = -30;
  static constexpr int kMaxExponent = 6;
  static constexpr double kMinTrackable = 0x1p-30;
  static constexpr double kMaxTrackable = 0x1p6;

  void record(double value);
  /// Adds `other`'s counts into this sketch. Exact (no re-bucketing) and
  /// associative.
  void merge(const QuantileSketch& other);

  /// Quantile estimate for q in [0, 1]; 0.0 when empty. Within α ≈ 1.08 %
  /// relative error of the true quantile of the recorded stream, for values
  /// inside the store's range.
  [[nodiscard]] double quantile(double q) const;

  /// Values recorded at or below 2^exponent, read exactly at that bucket
  /// edge. Throws std::out_of_range unless kMinExponent <= exponent <
  /// kMaxExponent (the last bucket also holds the values clamped into it).
  [[nodiscard]] std::uint64_t count_at_or_below_pow2(int exponent) const;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Sum of recorded values (zero-bucket values contribute 0), for mean
  /// reporting alongside the quantiles.
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }

 private:
  static constexpr int kBuckets =
      kBucketsPerOctave * (kMaxExponent - kMinExponent);
  /// Index of the store's first bucket, the one just above 2^kMinExponent.
  static constexpr int kFirstIndex = kBucketsPerOctave * kMinExponent + 1;

  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
  /// Dense store, bucket kFirstIndex first; empty until the first tracked
  /// value, then kBuckets long.
  std::vector<std::uint64_t> counts_;
};

}  // namespace vmp::util
