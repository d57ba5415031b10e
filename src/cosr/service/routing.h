#ifndef COSR_SERVICE_ROUTING_H_
#define COSR_SERVICE_ROUTING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cosr/common/types.h"

namespace cosr {

/// How ShardEngine assigns an incoming object to a shard. The inline
/// facade takes every policy; the threaded one takes kHashId only.
enum class RoutingPolicy {
  /// Uniform spray: shard = mix(id) mod K. Balances object count and (for
  /// size-independent workloads) volume; every shard sees the full size
  /// distribution.
  kHashId,
  /// Size-segregated: shard = size-class(size) mod K, so heavy-tail large
  /// objects land on different shards than small-object churn. This is the
  /// composition the follow-up literature scales with (Farach-Colton &
  /// Sheffield 2024; Jin 2026): per-size-class sub-problems whose costs
  /// add.
  kSizeClass,
  /// Load-aware: route each insert to the shard with the lowest live
  /// volume in the driver's load vector (the inline facade's volume
  /// gauges). Not a pure function of (id, size), so the engine keeps an
  /// id -> shard placement map and deletes still resolve. This is what keeps skewed
  /// (multi-tenant, Zipf) workloads from concentrating footprint on one
  /// hot shard.
  kLeastLoaded,
};

/// Display name: "hash" / "size-class" / "least-loaded".
const char* RoutingPolicyName(RoutingPolicy routing);

/// Whether a policy's routing decision can be re-derived from the id alone
/// (deletes carry no size). Policies for which this is false force the
/// facade to maintain an IdPlacementMap.
inline bool RoutingNeedsPlacementMap(RoutingPolicy routing) {
  return routing != RoutingPolicy::kHashId;
}

/// The kLeastLoaded argmin behind ShardEngine::Route: the index of the
/// smallest load score, lowest index winning ties (so the choice is
/// deterministic given the scores). `loads` must be non-empty.
std::uint32_t LeastLoadedShard(const std::vector<std::uint64_t>& loads);

/// The static routing function, shared by the engine and the tests:
/// which of `shard_count` shards an (id, size) insert goes to.
/// Thread-safe: pure function of its arguments. kLeastLoaded falls back to
/// the hash spray here — its real decision needs live load scores, which
/// only the driver has (ShardEngine::Route takes them).
std::uint32_t RouteToShard(RoutingPolicy routing, std::uint32_t shard_count,
                           ObjectId id, std::uint64_t size);

}  // namespace cosr

#endif  // COSR_SERVICE_ROUTING_H_
