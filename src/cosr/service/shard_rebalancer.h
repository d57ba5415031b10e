#ifndef COSR_SERVICE_SHARD_REBALANCER_H_
#define COSR_SERVICE_SHARD_REBALANCER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cosr/common/types.h"
#include "cosr/storage/extent.h"

namespace cosr {

/// Knobs for hot-shard detection and migration batching: the rebalance
/// scan ShardedReallocator::Rebalance runs on the inline driver
/// (ShardedReallocator::Options::rebalance). The threaded driver has no
/// rebalance scan.
struct RebalanceOptions {
  /// A shard is footprint-hot when its reserved frontier exceeds this
  /// multiple of the mean frontier across shards.
  double hot_footprint_ratio = 1.25;
  /// Shards below this frontier are never declared hot (tiny structures
  /// carry unavoidable constant-size overheads; migrating them is noise).
  std::uint64_t min_shard_footprint = 1u << 12;
  /// Per-scan migration budget: at most this many objects / bytes move in
  /// one scan, bounding the latency a scan can add to the request it
  /// follows.
  std::size_t max_batch_objects = 32;
  std::uint64_t max_batch_bytes = 1u << 16;
  /// Scan cadence: one scan after every this many requests.
  std::uint32_t check_interval = 16;
};

/// The planner's verdict: drain `hot` toward `cold` until `hot`'s frontier
/// projects at or below `target_footprint` (or the batch budget runs out).
struct RebalancePlan {
  bool has_move = false;
  std::uint32_t hot = 0;
  std::uint32_t cold = 0;
  std::uint64_t target_footprint = 0;
};

/// Pure planning over the shards' reserved frontiers (local coordinates;
/// unit-testable, no facade needed): picks the hottest shard over the
/// footprint threshold and the least-loaded destination. No move when no
/// shard crosses the threshold, K < 2, or hot == cold.
RebalancePlan PlanRebalance(const std::vector<std::uint64_t>& footprints,
                            const RebalanceOptions& options);

/// Pure victim selection from a hot shard's object snapshot (local
/// coordinates, any order): returns the objects to migrate, highest
/// offset first — the frontier-pinning objects whose removal actually
/// lowers the shard's reserved end. Stops at the batch budgets, when the
/// projected source frontier reaches `target_footprint`, or when the
/// projected destination would overtake the projected source (migrating
/// further would only swap which shard is hot).
std::vector<std::pair<ObjectId, Extent>> SelectRebalanceVictims(
    std::vector<std::pair<ObjectId, Extent>> objects,
    const RebalanceOptions& options, std::uint64_t src_footprint,
    std::uint64_t dst_footprint, std::uint64_t target_footprint);

}  // namespace cosr

#endif  // COSR_SERVICE_SHARD_REBALANCER_H_
