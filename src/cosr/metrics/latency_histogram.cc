#include "cosr/metrics/latency_histogram.h"

#include <algorithm>
#include <cmath>

#include "cosr/common/check.h"
#include "cosr/common/math_util.h"

namespace cosr {

std::size_t LatencyHistogram::BucketIndex(std::uint64_t value) {
  if (value < 2 * kSubBuckets) return static_cast<std::size_t>(value);
  const int exponent = FloorLog2(value);  // >= kSubBucketBits + 1 here
  const int shift = exponent - kSubBucketBits;
  const std::uint64_t mantissa = (value >> shift) - kSubBuckets;
  return (static_cast<std::size_t>(shift) + 1) * kSubBuckets +
         static_cast<std::size_t>(mantissa);
}

std::uint64_t LatencyHistogram::BucketUpperBound(std::size_t index) {
  COSR_CHECK_LT(index, kBucketCount);
  if (index < 2 * kSubBuckets) return index;
  const int shift = static_cast<int>(index / kSubBuckets) - 1;
  const std::uint64_t mantissa = index % kSubBuckets;
  const std::uint64_t lower = (kSubBuckets + mantissa) << shift;
  return lower + ((std::uint64_t{1} << shift) - 1);
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  if (other.buckets.empty()) return;
  if (buckets.empty()) buckets.resize(kBucketCount);
  COSR_CHECK_EQ(buckets.size(), other.buckets.size());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  max_value = std::max(max_value, other.max_value);
}

std::uint64_t LatencyHistogram::Percentile(double q) const {
  if (count == 0) return 0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  // ceil(q * count), clamped to [1, count]: the nearest-rank order
  // statistic, so "p50" of {1, 2} is 1 and of {1, 2, 3} is 2.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count)));
  rank = std::min(std::max<std::uint64_t>(rank, 1), count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      // Bucket order is value order, so the rank-th smallest sample lies
      // in the first bucket whose cumulative count reaches the rank. The
      // max clamp makes the top quantiles exact instead of bucket-rounded.
      return std::min(BucketUpperBound(i), max_value);
    }
  }
  return max_value;  // unreachable when counters are consistent
}

}  // namespace cosr
