#ifndef KLINK_COMMON_HISTOGRAM_H_
#define KLINK_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "src/common/serialize.h"

namespace klink {

/// Log-bucketed histogram of non-negative values (HdrHistogram-style),
/// used for latency distributions and CDF reporting. Relative quantile
/// error is bounded by the per-decade sub-bucket resolution (~1.6%).
///
/// The bucket array grows on demand up to the highest bucket touched, so
/// an unused histogram costs no heap and a latency histogram only holds
/// the buckets below its largest value. Serialized state always carries
/// the full `kNumBuckets` array.
class Histogram {
 public:
  /// Bucket count of the full value range [0, INT64_MAX]: 64 exact values,
  /// then 64 sub-buckets for each power of two from 2^6 to 2^62.
  static constexpr int kNumBuckets = 64 + (63 - 6) * 64;

  Histogram();

  /// Records one value; negatives are clamped to 0.
  void Add(int64_t value);

  /// Merges another histogram into this one.
  void Merge(const Histogram& other);

  /// Removes all recorded values.
  void Reset();

  int64_t count() const { return count_; }
  int64_t min() const;
  int64_t max() const { return max_; }
  double mean() const;

  /// Value at quantile q in [0, 1]; 0 when empty. q=0.5 is the median.
  int64_t Quantile(double q) const;

  /// Convenience: Quantile(p / 100).
  int64_t Percentile(double p) const { return Quantile(p / 100.0); }

  /// Checkpoint support: full bucket array (zeros past the grown prefix)
  /// plus summary accumulators.
  void Serialize(StateWriter& w) const;

  /// Restores state written by Serialize. A blob whose bucket count is not
  /// kNumBuckets fails the reader: the rest of it cannot be parsed.
  void Restore(StateReader& r);

 private:
  friend class HistogramTestPeer;

  static constexpr int kSubBuckets = 64;  // per power-of-two bucket

  static int BucketFor(int64_t value);
  static int64_t BucketMidpoint(int index);

  /// Counts of buckets [0, buckets_.size()); every bucket past the end is
  /// zero.
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace klink

#endif  // KLINK_COMMON_HISTOGRAM_H_
