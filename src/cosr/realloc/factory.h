#ifndef COSR_REALLOC_FACTORY_H_
#define COSR_REALLOC_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "cosr/common/status.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/service/routing.h"
#include "cosr/storage/space.h"

namespace cosr {

class DurabilityHub;

/// Construction parameters for MakeReallocator. Fields that an algorithm
/// does not use are ignored; every other algorithm setting keeps the
/// default of the algorithm's own Options.
struct ReallocatorSpec {
  /// One of KnownAlgorithms(): "first-fit", "best-fit", "buddy",
  /// "log-compact", "size-class", "pma", "oracle", "cost-oblivious",
  /// "checkpointed", "deamortized".
  std::string algorithm = "cost-oblivious";
  double epsilon = 0.25;  // core variants
  /// Service layer: with shard_count > 1 the factory returns a
  /// ShardedReallocator routing over that many instances of `algorithm`,
  /// each on its own sub-range of `space` (which must then carry no
  /// CheckpointManager — managed shards scope their own). shard_count == 1
  /// builds the plain single-instance algorithm.
  std::uint32_t shard_count = 1;
  RoutingPolicy routing = RoutingPolicy::kHashId;
  /// Durability tier: when non-null, every shard journals its storage
  /// events and checkpoints into the hub's per-shard MoveLogs (shard i
  /// writes log i; a single-instance build writes log 0). Requires a
  /// checkpoint-managed algorithm ("checkpointed"/"deamortized") — without
  /// checkpoint records a log has no recoverable prefix. Sync coalescing
  /// and checkpoint-time compaction are configured on the hub
  /// (DurabilityHub::Options::group_commit), not here — the policy is a
  /// property of the logs, applied uniformly to every shard. The hub must
  /// outlive the built reallocator and its space. Not owned.
  DurabilityHub* durability = nullptr;
};

/// Creates the named (re)allocator over `space`. Fails with
/// InvalidArgument for unknown names and FailedPrecondition when the
/// algorithm's checkpoint-manager requirement does not match the space.
Status MakeReallocator(const ReallocatorSpec& spec, Space* space,
                       std::unique_ptr<Reallocator>* out);

/// All algorithm names MakeReallocator accepts, in display order.
const std::vector<std::string>& KnownAlgorithms();

/// Whether the named algorithm requires a Space with a
/// CheckpointManager attached (the Section 3 variants).
bool AlgorithmNeedsCheckpointManager(const std::string& algorithm);

/// Whether the named algorithm's Insert can fail on a fresh id with a
/// positive size (today: only "pma", whose sparse tables hold uniform
/// slot_size objects). Such algorithms cannot sit behind the inline
/// facade's rebalancing, whose migrations must land — its Make rejects
/// that combination.
bool AlgorithmInsertCanFailOnFreshId(const std::string& algorithm);

}  // namespace cosr

#endif  // COSR_REALLOC_FACTORY_H_
