#include "cosr/service/routing.h"

#include "cosr/common/check.h"
#include "cosr/common/math_util.h"

namespace cosr {

namespace {

/// splitmix64 finalizer: ids arrive as dense sequential integers from the
/// workload layer, so a strong bit mixer is what turns "mod K" into a
/// uniform spray instead of a round-robin stripe.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

const char* RoutingPolicyName(RoutingPolicy routing) {
  switch (routing) {
    case RoutingPolicy::kHashId:
      return "hash";
    case RoutingPolicy::kSizeClass:
      return "size-class";
    case RoutingPolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "?";
}

std::uint32_t RouteToShard(RoutingPolicy routing, std::uint32_t shard_count,
                           ObjectId id, std::uint64_t size) {
  COSR_CHECK(shard_count > 0);
  if (shard_count == 1) return 0;
  switch (routing) {
    case RoutingPolicy::kHashId:
    case RoutingPolicy::kLeastLoaded:  // static fallback; see routing.h
      return static_cast<std::uint32_t>(Mix(id) % shard_count);
    case RoutingPolicy::kSizeClass:
      // Class i holds sizes 2^(i-1) <= w < 2^i (size_class.h); striping
      // classes round-robin keeps neighbors apart, so the heavy tail never
      // shares a shard with the small-churn classes next to it.
      return size == 0 ? 0
                       : static_cast<std::uint32_t>(
                             static_cast<std::uint32_t>(FloorLog2(size) + 1) %
                             shard_count);
  }
  return 0;
}

}  // namespace cosr
