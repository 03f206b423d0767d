#include "src/common/histogram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/common/serialize.h"

namespace klink {

/// Reads and forces the size of the on-demand bucket array.
class HistogramTestPeer {
 public:
  static size_t Buckets(const Histogram& h) { return h.buckets_.size(); }
  /// Grows `h` to the full bucket array, the layout every histogram had
  /// before buckets were allocated on demand: a reference for equivalence.
  static void GrowFully(Histogram& h) {
    h.buckets_.resize(static_cast<size_t>(Histogram::kNumBuckets), 0);
  }
};

namespace {

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

/// Checks every observable summary of `h` against `ref`.
void ExpectSameSummary(const Histogram& h, const Histogram& ref) {
  EXPECT_EQ(h.count(), ref.count());
  EXPECT_EQ(h.min(), ref.min());
  EXPECT_EQ(h.max(), ref.max());
  EXPECT_EQ(h.mean(), ref.mean());
  for (int i = 0; i <= 1000; ++i) {
    const double q = i / 1000.0;
    ASSERT_EQ(h.Quantile(q), ref.Quantile(q)) << "q=" << q;
  }
}

std::vector<uint8_t> SerializeToBytes(const Histogram& h) {
  StateWriter w;
  h.Serialize(w);
  return w.TakeBytes();
}

/// Random values spanning every magnitude, with 0, negatives and
/// INT64_MAX mixed in.
std::vector<int64_t> RandomValues(uint64_t seed, int n, int max_pow) {
  Rng rng(seed);
  std::vector<int64_t> values;
  for (int i = 0; i < n; ++i) {
    switch (rng.NextInt(0, 9)) {
      case 0: values.push_back(0); break;
      case 1: values.push_back(-rng.NextInt(1, 1000)); break;
      case 2:
        values.push_back(max_pow >= 63 ? kInt64Max : int64_t{1} << max_pow);
        break;
      default: {
        const int64_t pow = rng.NextInt(0, max_pow - 1);
        values.push_back(
            static_cast<int64_t>(rng.NextUint64() >> (63 - pow)));
      }
    }
  }
  return values;
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(42);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_EQ(h.Quantile(0.5), 42);
  EXPECT_EQ(h.Quantile(0.99), 42);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (int i = 0; i < 64; ++i) h.Add(i);
  EXPECT_EQ(h.Quantile(0.0), 0);
  // Median of 0..63 is around 31/32.
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.5)), 31.5, 1.0);
  EXPECT_EQ(h.max(), 63);
}

TEST(HistogramTest, QuantilesBoundedRelativeError) {
  Histogram h;
  for (int64_t v = 1; v <= 1000000; v += 7) h.Add(v);
  // Uniform distribution: p-quantile should be close to p * 1e6.
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    const double expected = p * 1e6;
    const double actual = static_cast<double>(h.Quantile(p));
    EXPECT_NEAR(actual, expected, expected * 0.03 + 8.0)
        << "quantile " << p;
  }
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 0);
}

TEST(HistogramTest, MergeCombinesCounts) {
  Histogram a, b;
  a.Add(10);
  a.Add(20);
  b.Add(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 30);
  EXPECT_DOUBLE_EQ(a.mean(), 20.0);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.Add(1);
  h.Add(2);
  h.Add(3);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Add(1000);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Quantile(0.5), 0);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  const int64_t big = int64_t{1} << 40;
  h.Add(big);
  EXPECT_EQ(h.count(), 1);
  // Log-bucketed: relative error bounded by sub-bucket resolution.
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.5)),
              static_cast<double>(big), static_cast<double>(big) * 0.02);
}

TEST(HistogramTest, BucketsGrowOnDemandAndResetReleasesThem) {
  Histogram h;
  EXPECT_EQ(HistogramTestPeer::Buckets(h), 0u);
  h.Add(5);
  EXPECT_EQ(HistogramTestPeer::Buckets(h), 6u);
  h.Add(3);
  EXPECT_EQ(HistogramTestPeer::Buckets(h), 6u);
  h.Add(kInt64Max);
  EXPECT_EQ(HistogramTestPeer::Buckets(h),
            static_cast<size_t>(Histogram::kNumBuckets));
  h.Reset();
  EXPECT_EQ(HistogramTestPeer::Buckets(h), 0u);
  EXPECT_EQ(h.count(), 0);
}

TEST(HistogramTest, OnDemandMatchesFullySizedReference) {
  for (const int max_pow : {10, 24, 40, 63}) {
    Histogram h;
    Histogram ref;
    HistogramTestPeer::GrowFully(ref);
    for (const int64_t v : RandomValues(7u + static_cast<uint64_t>(max_pow),
                                        5000, max_pow)) {
      h.Add(v);
      ref.Add(v);
    }
    EXPECT_LE(HistogramTestPeer::Buckets(h), HistogramTestPeer::Buckets(ref));
    ExpectSameSummary(h, ref);
    EXPECT_EQ(SerializeToBytes(h), SerializeToBytes(ref));
  }
}

TEST(HistogramTest, MergeAcrossGrownSizesInBothDirections) {
  // Values below 2^40 keep every sum exact, so merge order cannot move the
  // mean.
  const std::vector<int64_t> small = RandomValues(11, 3000, 12);
  const std::vector<int64_t> large = RandomValues(12, 3000, 40);
  Histogram all;
  HistogramTestPeer::GrowFully(all);
  for (const int64_t v : small) all.Add(v);
  for (const int64_t v : large) all.Add(v);

  auto build = [](const std::vector<int64_t>& values) {
    Histogram h;
    for (const int64_t v : values) h.Add(v);
    return h;
  };
  const Histogram s = build(small);
  const Histogram l = build(large);
  ASSERT_LT(HistogramTestPeer::Buckets(s), HistogramTestPeer::Buckets(l));

  Histogram small_into = s;
  small_into.Merge(l);
  ExpectSameSummary(small_into, all);
  EXPECT_EQ(HistogramTestPeer::Buckets(small_into),
            HistogramTestPeer::Buckets(l));
  Histogram large_into = l;
  large_into.Merge(s);
  ExpectSameSummary(large_into, all);
  EXPECT_EQ(SerializeToBytes(small_into), SerializeToBytes(large_into));

  // An empty histogram is the identity on either side.
  Histogram empty_into;
  empty_into.Merge(l);
  ExpectSameSummary(empty_into, l);
  Histogram into_empty = l;
  into_empty.Merge(Histogram());
  ExpectSameSummary(into_empty, l);
  EXPECT_EQ(HistogramTestPeer::Buckets(into_empty),
            HistogramTestPeer::Buckets(l));
}

TEST(HistogramTest, SerializeWritesTheFullFixedLayout) {
  Histogram h;
  h.Add(3);
  h.Add(1000);
  const std::vector<uint8_t> bytes = SerializeToBytes(h);
  // u64 bucket count, kNumBuckets i64 buckets, count/min/max, double sum.
  ASSERT_EQ(bytes.size(),
            8u * (1u + static_cast<size_t>(Histogram::kNumBuckets) + 4u));
  StateReader r(bytes);
  EXPECT_EQ(r.GetU64(), static_cast<uint64_t>(Histogram::kNumBuckets));
  int64_t nonzero = 0;
  int64_t total = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const int64_t b = r.GetI64();
    nonzero += b != 0 ? 1 : 0;
    total += b;
  }
  EXPECT_EQ(nonzero, 2);
  EXPECT_EQ(total, 2);
  EXPECT_EQ(r.GetI64(), 2);     // count
  EXPECT_EQ(r.GetI64(), 3);     // min
  EXPECT_EQ(r.GetI64(), 1000);  // max
  EXPECT_EQ(r.GetDouble(), 1003.0);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());

  // An empty histogram serializes the same layout, all zero buckets.
  EXPECT_EQ(SerializeToBytes(Histogram()).size(), bytes.size());
}

TEST(HistogramTest, RestoreRoundTrip) {
  Histogram h;
  for (const int64_t v : RandomValues(21, 2000, 63)) h.Add(v);
  const std::vector<uint8_t> bytes = SerializeToBytes(h);
  Histogram restored;
  restored.Add(77);  // overwritten by Restore
  StateReader r(bytes);
  restored.Restore(r);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  ExpectSameSummary(restored, h);
  EXPECT_EQ(HistogramTestPeer::Buckets(restored),
            HistogramTestPeer::Buckets(h));
  EXPECT_EQ(SerializeToBytes(restored), bytes);

  // An empty histogram round-trips to one that owns no buckets.
  const std::vector<uint8_t> empty_bytes = SerializeToBytes(Histogram());
  StateReader er(empty_bytes);
  Histogram empty;
  empty.Restore(er);
  ASSERT_TRUE(er.ok());
  EXPECT_EQ(HistogramTestPeer::Buckets(empty), 0u);
  EXPECT_EQ(empty.count(), 0);
  EXPECT_EQ(empty.min(), 0);
}

TEST(HistogramTest, RestoreRejectsWrongBucketCount) {
  Histogram original;
  original.Add(42);
  for (const uint64_t wrong :
       {uint64_t{0}, static_cast<uint64_t>(Histogram::kNumBuckets - 1),
        static_cast<uint64_t>(Histogram::kNumBuckets + 1)}) {
    StateWriter w;
    w.PutU64(wrong);
    for (uint64_t i = 0; i < wrong; ++i) w.PutI64(0);
    w.PutI64(1);
    w.PutI64(5);
    w.PutI64(5);
    w.PutDouble(5.0);
    StateReader r(w.bytes());
    Histogram h = original;
    h.Restore(r);
    // The reader is failed, not left misaligned with ok() still true, and
    // the histogram keeps its state.
    EXPECT_FALSE(r.ok()) << "count " << wrong;
    EXPECT_EQ(r.GetI64(), 0);
    ExpectSameSummary(h, original);
  }
}

}  // namespace
}  // namespace klink
