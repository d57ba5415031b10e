#ifndef COSR_SERVICE_ROUTING_H_
#define COSR_SERVICE_ROUTING_H_

#include <cstdint>

#include "cosr/common/types.h"

namespace cosr {

/// How a sharded facade assigns an incoming object to a shard. The inline
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
  /// volume (the inline facade's volume gauges). Not a pure function of
  /// (id, size), so the facade keeps an id -> shard map and deletes still
  /// resolve. This is what keeps skewed (multi-tenant, Zipf) workloads
  /// from concentrating footprint on one hot shard.
  kLeastLoaded,
};

/// Display name: "hash" / "size-class" / "least-loaded".
const char* RoutingPolicyName(RoutingPolicy routing);

/// The static routing function, shared by both facades and the tests:
/// which of `shard_count` shards an (id, size) insert goes to.
/// Thread-safe: pure function of its arguments. kLeastLoaded falls back to
/// the hash spray here — its real decision needs live load scores, which
/// only the inline driver has (ShardedReallocator::shard_for reads them).
std::uint32_t RouteToShard(RoutingPolicy routing, std::uint32_t shard_count,
                           ObjectId id, std::uint64_t size);

}  // namespace cosr

#endif  // COSR_SERVICE_ROUTING_H_
