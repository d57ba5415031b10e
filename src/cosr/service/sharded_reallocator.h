#ifndef COSR_SERVICE_SHARDED_REALLOCATOR_H_
#define COSR_SERVICE_SHARDED_REALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cosr/common/owner_fence.h"
#include "cosr/common/status.h"
#include "cosr/common/types.h"
#include "cosr/durability/move_log.h"
#include "cosr/realloc/factory.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/service/id_placement_map.h"
#include "cosr/service/routing.h"
#include "cosr/service/shard_stats.h"
#include "cosr/service/sub_space_view.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/space.h"

namespace cosr {

/// The service-layer facade: one Reallocator that routes each request to
/// one of K independent shards. Shard i owns the sub-range
/// [i * span, (i+1) * span) of the parent Space through a SubSpaceView and
/// runs its own inner reallocator (any factory algorithm) against that
/// view; managed algorithms get a private per-shard CheckpointManager, so
/// each shard's durability discipline is exactly the single-instance one.
///
/// The facade adds no placement logic of its own: with K=1 it is a
/// zero-cost wrapper, producing the identical operation sequence and
/// footprint as the unwrapped algorithm (pinned by
/// tests/sharded_reallocator_test.cc). With K>1 the sub-ranges make
/// cross-shard overlap impossible and costs/footprints compose additively —
/// the invariant the scale-out literature builds on — at the price of the
/// per-shard constant overheads measured by bench/exp_sharded.cc.
///
/// Thread-compatible: all requests must come from one thread at a time
/// (the facade routes into shared per-shard state and a routing map with no
/// internal locking). Debug builds CHECK-fail fast when a second thread
/// issues a request — use ConcurrentShardedReallocator for genuinely
/// parallel submission.
class ShardedReallocator final : public Reallocator {
 public:
  struct Options {
    std::uint32_t shard_count = 4;
    RoutingPolicy routing = RoutingPolicy::kHashId;
    /// Width of each shard's sub-range. The default leaves each shard 16
    /// TiB-of-units of headroom — far beyond any in-process workload —
    /// while keeping K=16 facades well inside the 64-bit space.
    std::uint64_t subrange_span = 1ull << 44;
    /// Enables MigrateObject (and thus a ShardRebalancer) on this facade.
    /// Forces the id placement map even under hash routing: a migrated
    /// id's hash no longer names its shard, so deletes must resolve
    /// through the map. Map-keeping routing policies (size-class,
    /// least-loaded) are migratable without this flag.
    bool allow_migration = false;
  };

  /// Builds K shards over `parent`, each with an inner reallocator made
  /// from `inner_spec` (whose shard_count/routing fields are ignored).
  /// `parent` must not carry a CheckpointManager: shards that need one own
  /// a private manager, scoped by their view. Fails when the inner spec is
  /// unknown to the factory or `options` are degenerate.
  static Status Make(const ReallocatorSpec& inner_spec, const Options& options,
                     Space* parent, std::unique_ptr<ShardedReallocator>* out);

  /// Detaches any durability log adapters from the parent space.
  ~ShardedReallocator() override;

  Status Insert(ObjectId id, std::uint64_t size) override;
  Status Delete(ObjectId id) override;

  /// Sum of the shards' reserved footprints — the additive sub-range view
  /// (the global max-end view is in Stats().global_max_end).
  std::uint64_t reserved_footprint() const override;
  std::uint64_t volume() const override;
  void Quiesce() override;
  /// Checkpoints every managed shard — forcing a durable point on every
  /// per-shard move log when the facade was built with a DurabilityHub.
  /// No-op for shards without a CheckpointManager.
  void CheckpointAll();
  const char* name() const override { return name_.c_str(); }

  ShardStats Stats() const;

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  RoutingPolicy routing() const { return options_.routing; }

  /// The routing decision for an (id, size) insert. For kLeastLoaded this
  /// consults the shards' live volumes (lowest wins, lowest index breaking
  /// ties — the same gauge the concurrent facade predicts at submit time).
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

  /// Whether MigrateObject is usable: the facade keeps the id placement
  /// map (map-keeping routing, or Options::allow_migration).
  bool migratable() const { return needs_shard_map_; }

  /// Moves live object `id` to shard `to`: Delete on its current shard,
  /// Insert on `to` (the destination picks its own placement, so the move
  /// rides the normal batched ApplyMoves/durability machinery of both
  /// shards — remove on the source's log, place on the destination's), and
  /// the placement map repoints. Migrating to the current shard is an Ok
  /// no-op. On a destination insert failure the object is re-inserted on
  /// its source shard and the error returned (state restored, nothing
  /// migrated). Counted per shard in Stats() migrations / migrated_bytes /
  /// migrations_in.
  Status MigrateObject(ObjectId id, std::uint32_t to);

  const Reallocator& shard(std::uint32_t index) const {
    return *shards_[index].inner;
  }
  const SubSpaceView& shard_view(std::uint32_t index) const {
    return *shards_[index].view;
  }
  /// Shard `index`'s CheckpointManager (nullptr for unmanaged algorithms).
  /// Mutating it (e.g. SetCheckpointHook) must happen from the facade's
  /// owning thread before requests are in flight.
  CheckpointManager* shard_manager(std::uint32_t index) const {
    return shards_[index].manager.get();
  }

 private:
  struct Shard {
    std::unique_ptr<CheckpointManager> manager;  // managed algorithms only
    std::unique_ptr<SubSpaceView> view;
    std::unique_ptr<Reallocator> inner;
    /// The shard's durability log (hub-owned; null without a hub) — kept
    /// so Stats() can surface the sink's sync/stall counters per shard.
    MoveLog* log = nullptr;
  };

  /// Plain per-shard accounting (single owner thread, no atomics): routed
  /// requests plus the rebalancer's migration counts.
  struct LocalCounters {
    std::uint64_t ops = 0;
    std::uint64_t migrations = 0;
    std::uint64_t migrated_bytes = 0;
    std::uint64_t migrations_in = 0;
  };

  ShardedReallocator(const Options& options, Space* parent)
      : options_(options), parent_(parent) {}

  /// Debug fence: the facade is thread-compatible, so every request must
  /// come from the thread that issued the first one.
  OwnerThreadFence owner_fence_;

  Options options_;
  Space* parent_;
  std::vector<Shard> shards_;
  /// Durability adapters on the caller-owned parent: the parent's listener
  /// stream carries every shard's events, so each shard's MoveLog hangs
  /// behind a RangeScopedListener that keeps only its own sub-range.
  /// Removed from the parent in the destructor.
  std::vector<std::unique_ptr<RangeScopedListener>> log_scopes_;
  /// id -> shard for routing policies that cannot re-derive the shard from
  /// the id alone (size-class, least-loaded) and for migratable facades
  /// (hash + allow_migration: a migrated id's hash is stale).
  IdPlacementMap placement_;
  bool needs_shard_map_ = false;
  std::vector<LocalCounters> counters_;  // parallel to shards_
  /// Per-shard wall-clock op latency, parallel to shards_. On this
  /// synchronous facade there is no queue, so each sample is recorded once
  /// into `service`, Stats() reports it as the total too, and queue_wait
  /// stays empty — the same ShardStats shape as the concurrent facade,
  /// with the split degenerating naturally.
  std::vector<ShardLatencyRecorders> latency_;
  std::string name_;
};

}  // namespace cosr

#endif  // COSR_SERVICE_SHARDED_REALLOCATOR_H_
