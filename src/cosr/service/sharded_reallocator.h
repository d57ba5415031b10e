#ifndef COSR_SERVICE_SHARDED_REALLOCATOR_H_
#define COSR_SERVICE_SHARDED_REALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "cosr/common/owner_fence.h"
#include "cosr/common/status.h"
#include "cosr/common/types.h"
#include "cosr/common/u64_hash_map.h"
#include "cosr/realloc/factory.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/service/routing.h"
#include "cosr/service/shard_engine.h"
#include "cosr/service/shard_rebalancer.h"
#include "cosr/service/shard_stats.h"
#include "cosr/service/sub_space_view.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/space.h"

namespace cosr {

/// The service-layer facade: one Reallocator that routes each request to
/// one of K independent shards — the inline driver of ShardEngine, which
/// runs every op on the caller's thread over the caller's shared parent
/// Space. Shard i owns the sub-range [i * span, (i+1) * span) of the
/// parent through a SubSpaceView and runs its own inner reallocator (any
/// factory algorithm) against that view; managed algorithms get a private
/// per-shard CheckpointManager, so each shard's durability discipline is
/// exactly the single-instance one.
///
/// The facade adds no placement logic of its own: with K=1 it is a
/// zero-cost wrapper, producing the identical operation sequence and
/// footprint as the unwrapped algorithm (pinned by
/// tests/sharded_reallocator_test.cc). With K>1 the sub-ranges make
/// cross-shard overlap impossible and costs/footprints compose additively —
/// the invariant the scale-out literature builds on — at the price of the
/// per-shard constant overheads measured by bench/exp_sharded.cc.
///
/// Routing and rebalancing live here, not in the engine: every policy runs
/// on this driver, and the ones a pure function of (id, size) cannot
/// re-derive on delete — size-class, least-loaded, and any migration —
/// keep an id -> shard map. With Options::rebalance, a rebalance scan runs
/// after every rebalance_options.check_interval-th request that reached a
/// shard, inside that request's call: each victim moves by one
/// ShardEngine::Migrate, landing before the call returns on the same
/// shards' logs and counters as any other op.
///
/// Thread-compatible: all requests must come from one thread at a time
/// (the facade routes into shared per-shard state and a routing map with no
/// internal locking). Debug builds CHECK-fail fast when a second thread
/// issues a request — use ConcurrentShardedReallocator for genuinely
/// parallel submission.
class ShardedReallocator final : public Reallocator {
 public:
  /// The shared shard settings plus rebalancing, which only this driver
  /// runs.
  struct Options : ShardEngine::Options {
    /// Enables rebalancing: a scan after every
    /// rebalance_options.check_interval-th request drains a bounded batch
    /// of the hottest shard's frontier objects to the coldest shard.
    /// Forces the id map (a migrated id's hash no longer names its shard).
    /// Rejected for inner algorithms whose inserts can fail on a fresh id:
    /// a migration's destination insert must not fail.
    bool rebalance = false;
    RebalanceOptions rebalance_options;
  };

  /// Builds K shards over `parent`, each with an inner reallocator made
  /// from `inner_spec` (whose shard_count/routing fields are ignored).
  /// `parent` must not carry a CheckpointManager: shards that need one own
  /// a private manager, scoped by their view. Fails when the inner spec is
  /// unknown to the factory, `options` are degenerate (see
  /// ShardEngine::Init), or rebalance is asked of an algorithm whose
  /// inserts can fail on a fresh id.
  static Status Make(const ReallocatorSpec& inner_spec, const Options& options,
                     Space* parent, std::unique_ptr<ShardedReallocator>* out);

  Status Insert(ObjectId id, std::uint64_t size) override;
  Status Delete(ObjectId id) override;

  /// Sum of the shards' reserved footprints — the additive sub-range view
  /// (the global max-end view is in Stats().global_max_end).
  std::uint64_t reserved_footprint() const override {
    return engine_.reserved_footprint();
  }
  std::uint64_t volume() const override { return engine_.volume(); }
  void Quiesce() override { ExecuteOnEveryShard(ShardOpKind::kQuiesce); }
  /// Checkpoints every managed shard — forcing a durable point on every
  /// per-shard move log when the facade was built with a DurabilityHub.
  /// No-op for shards without a CheckpointManager.
  void CheckpointAll() { ExecuteOnEveryShard(ShardOpKind::kCheckpoint); }
  const char* name() const override { return name_.c_str(); }

  ShardStats Stats() const;

  std::uint32_t shard_count() const { return engine_.shard_count(); }
  RoutingPolicy routing() const { return options_.routing; }

  /// The routing decision for an (id, size) insert. For kLeastLoaded this
  /// consults the shards' live volumes (lowest wins, lowest index breaking
  /// ties).
  /// Volume, not frontier, deliberately: an argmin over frontiers starves
  /// gap-rich shards — a shard whose frontier is high but mostly free
  /// would never receive another insert, so its gaps never refill, while
  /// the low-frontier shards are ratcheted up to meet it. Balancing live
  /// bytes routes inserts *into* the gaps (a never-move allocator fills
  /// below its frontier first) and leaves residual frontier imbalance to
  /// the rebalancer. The other policies are pure functions of (id, size).
  std::uint32_t shard_for(ObjectId id, std::uint64_t size) const;
  /// The shard currently holding live object `id`, or shard_count() when
  /// the id is not live.
  std::uint32_t shard_of(ObjectId id) const;

  const Reallocator& shard(std::uint32_t index) const {
    return engine_.shard(index);
  }
  const SubSpaceView& shard_view(std::uint32_t index) const {
    return engine_.shard_view(index);
  }
  /// Shard `index`'s CheckpointManager (nullptr for unmanaged algorithms).
  /// Mutating it (e.g. SetCheckpointHook) must happen from the facade's
  /// owning thread before requests are in flight.
  CheckpointManager* shard_manager(std::uint32_t index) const {
    return engine_.shard_manager(index);
  }

 private:
  ShardedReallocator() = default;

  /// Shard index of a live id in the map; kValue marks an empty slot.
  struct MappedShard {
    static constexpr std::uint32_t kValue = 0xffffffffu;
    static bool IsVacant(std::uint32_t shard) { return shard == kValue; }
  };

  /// Runs one request on `shard`, records a successful one in the map
  /// (when kept), and, every check_interval-th request when rebalancing,
  /// runs one rebalance scan after it.
  Status ExecuteRequest(std::uint32_t shard, const ShardOp& op);
  /// One scan: PlanRebalance over the footprint gauges, then — when the
  /// hot shard's deletes detach immediately — SelectRebalanceVictims over
  /// its view, migrated in order until the first Migrate that refuses.
  void Rebalance();
  void ExecuteOnEveryShard(ShardOpKind kind);

  /// Debug fence: the facade is thread-compatible, so every request must
  /// come from the thread that issued the first one.
  OwnerThreadFence owner_fence_;

  Options options_;
  ShardEngine engine_;
  /// Whether deletes resolve through placement_ rather than the hash: only
  /// hash routing can re-derive a shard from the id alone (deletes carry
  /// no size), and a migrated id's hash no longer names its shard.
  bool keeps_map_ = false;
  /// The id -> shard map of every live id, written only after the shard
  /// executed, so it records execution exactly.
  U64HashMap<std::uint32_t, MappedShard> placement_;
  /// Rebalance pacing: requests since the last scan.
  std::uint32_t requests_since_scan_ = 0;
  std::string name_;
};

}  // namespace cosr

#endif  // COSR_SERVICE_SHARDED_REALLOCATOR_H_
