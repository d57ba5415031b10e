#include "cosr/metrics/latency_histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace cosr {
namespace {

// The order statistic the histogram approximates: ceil(q * n)-th smallest
// sample, rank clamped to [1, n] (nearest rank).
std::uint64_t OraclePercentile(std::vector<std::uint64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(values.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), values.size());
  return values[rank - 1];
}

TEST(LatencyHistogramTest, BucketIndexRoundTrips) {
  // Every probed value must land in a bucket whose range contains it, and
  // indices must be monotone in the value.
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 4096; ++v) probes.push_back(v);
  for (int e = 12; e < 63; ++e) {
    const std::uint64_t base = std::uint64_t{1} << e;
    probes.push_back(base - 1);
    probes.push_back(base);
    probes.push_back(base + 1);
    probes.push_back(base + (base >> 1));
  }
  probes.push_back(~std::uint64_t{0});
  std::sort(probes.begin(), probes.end());
  std::size_t prev_index = 0;
  for (const std::uint64_t v : probes) {
    const std::size_t index = LatencyHistogram::BucketIndex(v);
    ASSERT_LT(index, LatencyHistogram::kBucketCount);
    EXPECT_GE(index, prev_index) << "index not monotone at value " << v;
    prev_index = index;
    const std::uint64_t upper = LatencyHistogram::BucketUpperBound(index);
    EXPECT_GE(upper, v);
    if (index > 0) {
      EXPECT_LT(LatencyHistogram::BucketUpperBound(index - 1), v);
    }
  }
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  // Values below 2 * kSubBuckets map to singleton buckets, so every
  // percentile is the exact order statistic.
  LatencyHistogram hist;
  std::vector<std::uint64_t> values;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng() % (2 * LatencyHistogram::kSubBuckets);
    values.push_back(v);
    hist.Record(v);
  }
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(hist.Percentile(q), OraclePercentile(values, q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, PercentilesTrackSortedOracleWithinResolution) {
  // Wide-range samples: each percentile must bracket the true order
  // statistic from above, within the 1/kSubBuckets relative resolution.
  LatencyHistogram hist;
  std::vector<std::uint64_t> values;
  std::mt19937_64 rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform-ish: random magnitude, then random mantissa bits.
    const int bits = static_cast<int>(rng() % 40);
    const std::uint64_t v = rng() & ((std::uint64_t{1} << bits) - 1);
    values.push_back(v);
    hist.Record(v);
  }
  ASSERT_EQ(hist.count, values.size());
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : hist.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hist.count);
  std::uint64_t previous = 0;
  for (const double q :
       {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const std::uint64_t exact = OraclePercentile(values, q);
    const std::uint64_t reported = hist.Percentile(q);
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_LE(reported, exact + exact / LatencyHistogram::kSubBuckets)
        << "q=" << q;
    EXPECT_GE(reported, previous) << "percentiles not monotone at q=" << q;
    previous = reported;
  }
  EXPECT_EQ(hist.Percentile(1.0), *std::max_element(values.begin(),
                                                    values.end()));
  EXPECT_EQ(hist.max(), hist.Percentile(1.0));
}

TEST(LatencyHistogramTest, EmptyHistogramAnswersZero) {
  LatencyHistogram hist;
  EXPECT_TRUE(hist.empty());
  EXPECT_EQ(hist.count, 0u);
  EXPECT_EQ(hist.Percentile(0.0), 0u);
  EXPECT_EQ(hist.Percentile(0.5), 0u);
  EXPECT_EQ(hist.Percentile(1.0), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleDominatesEveryQuantile) {
  LatencyHistogram hist;
  hist.Record(123456789);
  EXPECT_EQ(hist.count, 1u);
  for (const double q : {0.0, 0.5, 0.999, 1.0}) {
    // The max clamp makes a one-sample histogram exact at every quantile.
    EXPECT_EQ(hist.Percentile(q), 123456789u) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(hist.mean(), 123456789.0);
}

TEST(LatencyHistogramTest, OutOfRangeQuantilesClamp) {
  LatencyHistogram hist;
  hist.Record(10);
  hist.Record(20);
  EXPECT_EQ(hist.Percentile(-1.0), hist.Percentile(0.0));
  EXPECT_EQ(hist.Percentile(2.0), hist.Percentile(1.0));
}

TEST(LatencyHistogramTest, MergeIsAssociativeAndCommutative) {
  std::mt19937_64 rng(99);
  LatencyHistogram parts[3];
  std::vector<std::uint64_t> all_values;
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t v = rng() % (std::uint64_t{1} << (10 + 7 * p));
      parts[p].Record(v);
      all_values.push_back(v);
    }
  }
  const LatencyHistogram& a = parts[0];
  const LatencyHistogram& b = parts[1];
  const LatencyHistogram& c = parts[2];

  LatencyHistogram left;  // (a + b) + c
  left.MergeFrom(a);
  left.MergeFrom(b);
  left.MergeFrom(c);

  LatencyHistogram bc;  // a + (b + c), built right-first
  bc.MergeFrom(b);
  bc.MergeFrom(c);
  LatencyHistogram right;
  right.MergeFrom(bc);
  right.MergeFrom(a);

  EXPECT_EQ(left.buckets, right.buckets);
  EXPECT_EQ(left.count, right.count);
  EXPECT_EQ(left.sum, right.sum);
  EXPECT_EQ(left.max_value, right.max_value);

  // The merged histogram answers like one histogram fed every sample.
  ASSERT_EQ(left.count, all_values.size());
  for (const double q : {0.5, 0.9, 0.99, 1.0}) {
    const std::uint64_t exact = OraclePercentile(all_values, q);
    EXPECT_GE(left.Percentile(q), exact);
    EXPECT_LE(left.Percentile(q),
              exact + exact / LatencyHistogram::kSubBuckets);
  }
}

TEST(LatencyHistogramTest, MergingEmptyHistogramsIsIdentity) {
  LatencyHistogram hist;
  hist.Record(5);
  const LatencyHistogram before = hist;
  hist.MergeFrom(LatencyHistogram{});  // empty right operand
  EXPECT_EQ(hist.buckets, before.buckets);
  EXPECT_EQ(hist.count, before.count);

  LatencyHistogram empty;  // empty left operand
  empty.MergeFrom(before);
  EXPECT_EQ(empty.count, before.count);
  EXPECT_EQ(empty.Percentile(1.0), 5u);
}

TEST(LatencyHistogramTest, CopiesAreIndependentValues) {
  // A plain value: what the owner records after copying never reaches the
  // copy a reader holds.
  LatencyHistogram hist;
  hist.Record(7);
  const LatencyHistogram copy = hist;
  hist.Record(1000);
  EXPECT_EQ(copy.count, 1u);
  EXPECT_EQ(copy.max(), 7u);
  EXPECT_EQ(hist.count, 2u);
  EXPECT_EQ(hist.max(), 1000u);
}

}  // namespace
}  // namespace cosr
