#ifndef COSR_SERVICE_SHARD_ENGINE_H_
#define COSR_SERVICE_SHARD_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cosr/common/status.h"
#include "cosr/common/types.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/service/routing.h"
#include "cosr/service/shard_stats.h"
#include "cosr/service/sub_space_view.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/space.h"

namespace cosr {

struct ReallocatorSpec;
class MoveLog;

/// The kinds of op a shard executes. Requests (insert/delete) are the
/// client-visible ones; the rest are internal. Each touches one shard.
enum class ShardOpKind : std::uint8_t {
  kInsert,
  kDelete,
  kQuiesce,
  kCheckpoint,
  /// Writes a copy of the shard's ShardStats::PerShard to
  /// `snapshot_out`, which must outlive the op.
  kSnapshot,
};

/// One op for one shard.
struct ShardOp {
  ShardOpKind kind = ShardOpKind::kInsert;
  ObjectId id = kInvalidObjectId;
  std::uint64_t size = 0;
  /// Threaded requests only: MonotonicNanos() at submit time, so the
  /// recorded queue wait covers queue residency plus any producer-side
  /// backpressure stall.
  std::uint64_t submit_ns = 0;
  ShardStats::PerShard* snapshot_out = nullptr;
};

/// The one shard engine behind both sharded facades: K shards, each an
/// unmodified factory algorithm on a SubSpaceView of the sub-range
/// [i * span, (i+1) * span) with its own scoped CheckpointManager (managed
/// algorithms) and durability log (with a DurabilityHub). The engine owns
/// only what both facades share — the shard set and its Make-time
/// validation, executing one op on one shard with its accounting (the
/// shard's ShardStats::PerShard record, written in place, and its two
/// ShardCounters gauges), and the per-shard snapshot and ShardStats merge
/// — plus Migrate, the one cross-shard primitive. Each driver decides
/// which shard an op goes to and how it gets there:
///   * kInline (ShardedReallocator): ops run on the caller's thread over
///     the caller's one parent Space. The parent's event stream carries
///     every shard's events, so the per-shard logs hang behind one
///     listener that forwards each event to the log of the shard the
///     engine is executing. This driver also owns the routing policies
///     that need an id -> shard map and the rebalance scan that calls
///     Migrate.
///   * kThreaded (ConcurrentShardedReallocator): each shard owns a private
///     root, and a pool of worker threads executes the shards; a worker
///     claims a shard before it drains it, so one shard runs on one thread
///     at a time. Logs attach to the private roots directly. Routing is by
///     hash only.
/// Shard i's view is based at i * span in both modes, so placements,
/// footprints and per-shard logs agree coordinate for coordinate.
///
/// Thread-compatible per shard: all ops for shard s (Execute, Snapshot,
/// record) must come from s's owner — the inline caller, or the worker
/// holding s's claim. A claiming worker calls HandOff(s) first, so the
/// debug fence follows the claim. Migrate touches two shards, so only the
/// inline driver, which owns them all, calls it.
class ShardEngine {
 public:
  /// The settings both facades share.
  struct Options {
    std::uint32_t shard_count = 4;
    /// Read by the drivers; the engine itself never routes.
    RoutingPolicy routing = RoutingPolicy::kHashId;
    /// Width of each shard's sub-range. The default leaves each shard 16
    /// TiB-of-units of headroom — far beyond any in-process workload —
    /// while keeping K=16 facades well inside the 64-bit space.
    std::uint64_t subrange_span = 1ull << 44;
  };

  enum class Mode { kInline, kThreaded };

  ShardEngine();
  ~ShardEngine();
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Validates `options` and builds the shards, each an inner `spec`
  /// reallocator (its shard_count and routing fields are ignored).
  /// `roots` holds the one shared parent (kInline) or one private root per
  /// shard (kThreaded); no root may carry a CheckpointManager, because
  /// each shard scopes its own. Fails when the spec is unknown, `options`
  /// are degenerate, or durability is asked of an algorithm that never
  /// checkpoints.
  Status Init(const ReallocatorSpec& spec, const Options& options, Mode mode,
              const std::vector<Space*>& roots);

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Runs `op` on `shard` with its accounting. A request counts into the
  /// shard's record and its latency: kInline takes one service sample
  /// (there is no queue), kThreaded a queue wait from op.submit_ns, the
  /// service time and the total. `start_ns` is when execution began; the
  /// return value is the clock after it, so a drain loop chains one clock
  /// read per op. The op's Status lands in `*status`.
  std::uint64_t Execute(std::uint32_t shard, const ShardOp& op,
                        std::uint64_t start_ns, Status* status);

  /// Moves live object `id` (`length` units) from shard `from` to shard
  /// `to`: the delete on `from`, then the insert on `to`, each journaled
  /// on its own shard's log, so the remove always precedes the place.
  /// Counts migrations/migrated_bytes on `from` and migrations_in on `to`
  /// and stores both shards' gauges. Returns false, touching nothing, when
  /// deletes on `from` do not detach immediately: a deamortized source
  /// mid-flush would leave the id placed while `to` re-places it, and
  /// would journal the remove after the place. Neither half may fail (the
  /// caller rules out algorithms whose inserts can fail on a fresh id), so
  /// both are CHECKed.
  bool Migrate(std::uint32_t from, std::uint32_t to, ObjectId id,
               std::uint64_t length);

  /// Shard `index`'s accounting, copied by its owner (kSnapshot runs
  /// this): the record plus what the view, manager and log report.
  ShardStats::PerShard Snapshot(std::uint32_t index) const;
  /// The one ShardStats merge: per-shard snapshots into the facade view
  /// (sums, maxima, merged latency histograms).
  static ShardStats MergeStats(std::vector<ShardStats::PerShard> shards);

  const Reallocator& shard(std::uint32_t index) const {
    return *shards_[index].inner;
  }
  const SubSpaceView& shard_view(std::uint32_t index) const {
    return *shards_[index].view;
  }
  CheckpointManager* shard_manager(std::uint32_t index) const {
    return shards_[index].manager.get();
  }
  /// Any-time read: the shard's two cross-thread gauges.
  const ShardCounters& counters(std::uint32_t index) const {
    return counters_[index];
  }
  /// Makes the calling thread shard `index`'s owner for the debug fence.
  /// The threaded driver calls it when a worker takes the shard's claim,
  /// which already orders it after the previous owner.
  void HandOff(std::uint32_t index) { shards_[index].view->HandOff(); }
  /// Shard owner only: the shard's accounting record, for the fields its
  /// driver writes (the threaded driver's remote-batch counts).
  ShardStats::PerShard& record(std::uint32_t index) {
    return shards_[index].record;
  }
  /// Sums of the shards' reserved-footprint and volume gauges: exact on
  /// the inline driver, relaxed running sums on the threaded one.
  std::uint64_t reserved_footprint() const;
  std::uint64_t volume() const;

 private:
  class ExecutingShardLog;

  /// Aligned so one shard owner's record writes never share a cache line
  /// with another shard's.
  struct alignas(64) Shard {
    Space* root = nullptr;
    std::unique_ptr<CheckpointManager> manager;  // managed algorithms only
    std::unique_ptr<SubSpaceView> view;
    std::unique_ptr<Reallocator> inner;
    /// The shard's durability log (hub-owned; null without a hub), kept
    /// so snapshots surface the sink's sync counters.
    MoveLog* log = nullptr;
    /// The accounting the owner writes in place as it executes ops.
    ShardStats::PerShard record;
  };

  /// Stores the shard's volume and reserved-footprint gauges after its
  /// state changed, and raises the record's peak.
  void StoreGauges(std::uint32_t index);

  /// Points the inline log forwarder (when there is one) at `log`.
  void SelectLog(MoveLog* log);

  Mode mode_ = Mode::kInline;
  std::vector<Shard> shards_;
  std::vector<ShardCounters> counters_;  // parallel to shards_
  /// kInline with durability only: the listener on the shared parent.
  std::unique_ptr<ExecutingShardLog> log_forwarder_;
};

}  // namespace cosr

#endif  // COSR_SERVICE_SHARD_ENGINE_H_
