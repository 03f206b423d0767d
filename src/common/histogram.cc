#include "src/common/histogram.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/common/check.h"

namespace klink {

namespace {
// 64 sub-buckets per power of two above 2^6; values < 64 are exact.
constexpr int kExactLimit = 64;
constexpr int kMaxPow = 63;
}  // namespace

Histogram::Histogram() : min_(std::numeric_limits<int64_t>::max()) {
  static_assert(kNumBuckets == kExactLimit + (kMaxPow - 6) * kSubBuckets);
}

int Histogram::BucketFor(int64_t value) {
  if (value < kExactLimit) return static_cast<int>(value);
  const int pow = 63 - std::countl_zero(static_cast<uint64_t>(value));
  // Sub-bucket index: top 6 bits after the leading bit.
  const int sub = static_cast<int>((static_cast<uint64_t>(value) >> (pow - 6)) &
                                   (kSubBuckets - 1));
  return kExactLimit + (pow - 6) * kSubBuckets + sub;
}

int64_t Histogram::BucketMidpoint(int index) {
  if (index < kExactLimit) return index;
  const int rel = index - kExactLimit;
  const int pow = rel / kSubBuckets + 6;
  const int sub = rel % kSubBuckets;
  const int64_t lo =
      (int64_t{1} << pow) + (static_cast<int64_t>(sub) << (pow - 6));
  const int64_t width = int64_t{1} << (pow - 6);
  return lo + width / 2;
}

void Histogram::Add(int64_t value) {
  if (value < 0) value = 0;
  const size_t b = static_cast<size_t>(BucketFor(value));
  KLINK_DCHECK(b < static_cast<size_t>(kNumBuckets));
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++count_;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  sum_ += static_cast<double>(value);
}

void Histogram::Merge(const Histogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  if (other.count_ > 0) {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
}

void Histogram::Reset() { *this = Histogram(); }

int64_t Histogram::min() const { return count_ == 0 ? 0 : min_; }

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

int64_t Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const int64_t target =
      std::max<int64_t>(1, static_cast<int64_t>(q * static_cast<double>(count_) + 0.5));
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      const int64_t mid = BucketMidpoint(static_cast<int>(i));
      return std::clamp(mid, min(), max_);
    }
  }
  return max_;
}

void Histogram::Serialize(StateWriter& w) const {
  w.PutU64(static_cast<uint64_t>(kNumBuckets));
  for (const int64_t b : buckets_) w.PutI64(b);
  for (size_t i = buckets_.size(); i < static_cast<size_t>(kNumBuckets); ++i) {
    w.PutI64(0);
  }
  w.PutI64(count_);
  w.PutI64(min_);
  w.PutI64(max_);
  w.PutDouble(sum_);
}

void Histogram::Restore(StateReader& r) {
  const uint64_t n = r.GetU64();
  if (!r.ok() || n != static_cast<uint64_t>(kNumBuckets)) {
    r.Fail();
    return;
  }
  buckets_.assign(static_cast<size_t>(kNumBuckets), 0);
  for (int64_t& b : buckets_) b = r.GetI64();
  // Keep only the prefix up to the last non-empty bucket.
  size_t used = buckets_.size();
  while (used > 0 && buckets_[used - 1] == 0) --used;
  buckets_.resize(used);
  buckets_.shrink_to_fit();
  count_ = r.GetI64();
  min_ = r.GetI64();
  max_ = r.GetI64();
  sum_ = r.GetDouble();
}

}  // namespace klink
