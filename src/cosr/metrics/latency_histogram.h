#ifndef COSR_METRICS_LATENCY_HISTOGRAM_H_
#define COSR_METRICS_LATENCY_HISTOGRAM_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cosr {

/// A monotonic wall-clock timestamp in nanoseconds — the stamp the service
/// layer puts on a request at submit time and compares at completion.
/// steady_clock, so differences are immune to wall-clock adjustments.
inline std::uint64_t MonotonicNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// a - b, clamped at 0. Timestamps taken on different threads are ordered
/// by the happens-before edges of the queue hand-off, but the clamp keeps a
/// pathological clock reading from wrapping into a ~2^64 "latency".
inline std::uint64_t SaturatingElapsed(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : 0;
}

/// A log-bucketed histogram in the HDR-histogram style: power-of-two major
/// buckets split into 2^kSubBucketBits mantissa sub-buckets, so Record is
/// O(1) (one bit-scan, one indexed increment) at a fixed ~3% relative
/// resolution over the full uint64 range. Fixed footprint (kBucketCount
/// counters, ~15 KiB, allocated on the first Record), no per-sample
/// storage — the properties that let one histogram sit on a shard's hot
/// loop for the life of the process. Unit-agnostic: the service facades
/// record wall-clock nanoseconds, exp_worstcase bytes written per request.
///
/// A plain value: copy it, merge it, send it across threads. Thread-
/// compatible — whoever owns a histogram records into it (a shard's owner,
/// for the per-shard ones in ShardStats::PerShard), and readers on other
/// threads get a copy made by that owner.
///
/// Percentile semantics: `Percentile(q)` returns the upper bound of the
/// bucket holding the ceil(q * count)-th smallest sample (clamped to
/// [1, count]), further clamped to the exact recorded maximum — so
/// `Percentile(1.0) == max()` exactly, results are monotone non-decreasing
/// in q, and every result overestimates the true order statistic by at
/// most one part in 2^kSubBucketBits (~3%). Empty histograms answer 0.
struct LatencyHistogram {
  /// 2^5 = 32 sub-buckets per power of two: worst-case relative error of a
  /// bucket upper bound is 1/32 (~3.1%); values below 64 are exact.
  static constexpr int kSubBucketBits = 5;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  /// Group 0 covers [0, 2*kSubBuckets) exactly; each further group covers
  /// one power of two. 64-bit values need (64 - kSubBucketBits - 1) more
  /// groups of kSubBuckets buckets each.
  static constexpr std::size_t kBucketCount =
      (64 - kSubBucketBits + 1) * kSubBuckets;

  /// Per-bucket sample counts (kBucketCount entries once anything was
  /// recorded or merged in; empty before).
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max_value = 0;

  /// Records one sample. O(1); allocates only on the first call.
  void Record(std::uint64_t value) {
    if (buckets.empty()) buckets.resize(kBucketCount);
    ++buckets[BucketIndex(value)];
    ++count;
    sum += value;
    if (value > max_value) max_value = value;
  }

  /// Folds `other` into this histogram: buckets and counters add, max
  /// takes the max. Merging is associative and commutative (pure
  /// addition), so per-shard histograms aggregate in any order.
  void MergeFrom(const LatencyHistogram& other);

  /// The value at quantile q in [0, 1] (inputs outside the range clamp).
  std::uint64_t Percentile(double q) const;

  std::uint64_t max() const { return max_value; }
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  bool empty() const { return count == 0; }

  /// The bucket a value lands in. Values below 2*kSubBuckets map to
  /// themselves (exact); a larger value with floor(log2) = e keeps its top
  /// kSubBucketBits mantissa bits within group e - kSubBucketBits + 1.
  static std::size_t BucketIndex(std::uint64_t value);
  /// The largest value mapping to `index` (inverse resolution of the
  /// scheme above; what Percentile reports before the max clamp).
  static std::uint64_t BucketUpperBound(std::size_t index);
};

}  // namespace cosr

#endif  // COSR_METRICS_LATENCY_HISTOGRAM_H_
