#include "cosr/service/shard_rebalancer.h"

#include <algorithm>
#include <cmath>

namespace cosr {

RebalancePlan PlanRebalance(const std::vector<std::uint64_t>& footprints,
                            const RebalanceOptions& options) {
  RebalancePlan plan;
  const std::uint32_t shard_count =
      static_cast<std::uint32_t>(footprints.size());
  if (shard_count < 2) return plan;

  std::uint64_t sum_footprint = 0;
  for (std::uint64_t footprint : footprints) sum_footprint += footprint;
  const double mean_footprint =
      static_cast<double>(sum_footprint) / shard_count;

  // Hottest eligible shard: the highest frontier among shards big enough to
  // matter and over the ratio — the shard whose drain lowers footprint most.
  std::uint32_t hot = shard_count;
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    if (footprints[i] < options.min_shard_footprint) continue;
    if (static_cast<double>(footprints[i]) <=
        options.hot_footprint_ratio * mean_footprint) {
      continue;
    }
    if (hot == shard_count || footprints[i] > footprints[hot]) hot = i;
  }
  if (hot == shard_count) return plan;

  // Destination: the lowest frontier (lowest index breaking ties).
  std::uint32_t cold = 0;
  for (std::uint32_t i = 1; i < shard_count; ++i) {
    if (footprints[i] < footprints[cold]) cold = i;
  }
  if (cold == hot || footprints[cold] >= footprints[hot]) return plan;

  plan.has_move = true;
  plan.hot = hot;
  plan.cold = cold;
  // Drain toward the mean; never below the cold shard's current frontier
  // (once the pair meets in the middle there is nothing left to gain).
  plan.target_footprint =
      std::max(static_cast<std::uint64_t>(std::llround(mean_footprint)),
               footprints[cold]);
  return plan;
}

std::vector<std::pair<ObjectId, Extent>> SelectRebalanceVictims(
    std::vector<std::pair<ObjectId, Extent>> objects,
    const RebalanceOptions& options, std::uint64_t src_footprint,
    std::uint64_t dst_footprint, std::uint64_t target_footprint) {
  // Highest offset first: the frontier objects. Extents are disjoint, so
  // after draining the top k of them the source's placed end is bounded by
  // the next remaining object's end.
  std::sort(objects.begin(), objects.end(),
            [](const std::pair<ObjectId, Extent>& a,
               const std::pair<ObjectId, Extent>& b) {
              return a.second.offset > b.second.offset;
            });

  std::vector<std::pair<ObjectId, Extent>> victims;
  std::uint64_t projected_src = src_footprint;
  std::uint64_t projected_dst = dst_footprint;
  std::uint64_t batch_bytes = 0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    if (victims.size() >= options.max_batch_objects) break;
    if (batch_bytes >= options.max_batch_bytes) break;
    if (projected_src <= target_footprint) break;
    const std::uint64_t length = objects[i].second.length;
    // Anti-ping-pong: stop before the destination's projected frontier
    // overtakes the source's — migrating further would only swap which
    // shard is hot next scan.
    if (projected_dst + length >= projected_src) break;
    victims.push_back(objects[i]);
    batch_bytes += length;
    const std::uint64_t next_end =
        i + 1 < objects.size() ? objects[i + 1].second.end() : 0;
    projected_src = std::min(projected_src, next_end);
    projected_dst += length;
  }
  return victims;
}

}  // namespace cosr
