#ifndef COSR_SERVICE_SHARD_ENGINE_H_
#define COSR_SERVICE_SHARD_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cosr/common/status.h"
#include "cosr/common/types.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/service/id_placement_map.h"
#include "cosr/service/routing.h"
#include "cosr/service/shard_rebalancer.h"
#include "cosr/service/shard_stats.h"
#include "cosr/service/sub_space_view.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/extent.h"
#include "cosr/storage/space.h"

namespace cosr {

struct ReallocatorSpec;
class MoveLog;

/// The kinds of op a shard executes. Requests (insert/delete) are the
/// client-visible ones; the rest are internal.
enum class ShardOpKind : std::uint8_t {
  kInsert,
  kDelete,
  kQuiesce,
  kCheckpoint,
  /// A migrated object arriving on its destination shard; the source half
  /// (delete, map repoint) already ran in ShardEngine::MigrateOut.
  kMigrateIn,
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
/// everything the facades share — the shard set and its Make-time
/// validation, routing and the IdPlacementMap, executing one op on one
/// shard with its accounting (the shard's ShardStats::PerShard record,
/// written in place, and its two ShardCounters gauges), the rebalance
/// scan, and the per-shard snapshot and ShardStats merge — and
/// leaves to its driver only how ops reach a shard:
///   * kInline (ShardedReallocator): ops run on the caller's thread over
///     the caller's one parent Space. The parent's event stream carries
///     every shard's events, so the per-shard logs hang behind one
///     listener that forwards each event to the log of the shard the
///     engine is executing.
///   * kThreaded (ConcurrentShardedReallocator): each shard owns a private
///     root and is executed only by its worker thread; logs attach to the
///     private roots directly.
/// Shard i's view is based at i * span in both modes, so placements,
/// footprints and per-shard logs agree coordinate for coordinate.
///
/// Thread-compatible per shard: all ops for shard s (Execute, Snapshot,
/// record) must come from s's owner — the inline caller, or s's worker.
/// The placement map, the rebalance scan and MigrateOut are the inline
/// driver's alone: the threaded driver routes by hash only, so it keeps no
/// map and never migrates.
class ShardEngine {
 public:
  /// The settings both facades share.
  struct Options {
    std::uint32_t shard_count = 4;
    RoutingPolicy routing = RoutingPolicy::kHashId;
    /// Width of each shard's sub-range. The default leaves each shard 16
    /// TiB-of-units of headroom — far beyond any in-process workload —
    /// while keeping K=16 facades well inside the 64-bit space.
    std::uint64_t subrange_span = 1ull << 44;
    /// Enables rebalancing (inline driver only): a scan after every
    /// rebalance_options.check_interval-th request drains a bounded batch
    /// of the hottest shard's frontier objects to the coldest shard.
    /// Forces the id placement map (a migrated id's hash no longer names
    /// its shard). Rejected for inner algorithms whose inserts can fail on
    /// a fresh id: a migration's destination insert must not fail.
    bool rebalance = false;
    RebalanceOptions rebalance_options;
  };

  enum class Mode { kInline, kThreaded };

  ShardEngine();
  ~ShardEngine();
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Validates `options` and builds the shards, each an inner `spec`
  /// reallocator (its shard_count/worker_threads/routing fields are
  /// ignored). `roots` holds the one shared parent (kInline) or one
  /// private root per shard (kThreaded); no root may carry a
  /// CheckpointManager, because each shard scopes its own. Fails when the
  /// spec is unknown, `options` are degenerate, durability is asked of an
  /// algorithm that never checkpoints, or rebalancing is asked of an
  /// algorithm whose inserts can fail on a fresh id.
  Status Init(const ReallocatorSpec& spec, const Options& options, Mode mode,
              const std::vector<Space*>& roots);

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  const Options& options() const { return options_; }
  /// Whether deletes resolve through placement() rather than the hash:
  /// map-keeping routing, or rebalancing.
  bool keeps_map() const { return keeps_map_; }
  IdPlacementMap& placement() { return placement_; }
  const IdPlacementMap& placement() const { return placement_; }

  /// The routing decision for an (id, size) insert (and, without the map,
  /// for a delete: size 0 under hash routing). kLeastLoaded returns
  /// the argmin of `loads` (one entry per shard, lowest index breaking
  /// ties) — the driver's load signal; the other policies are pure
  /// functions of (id, size) and ignore it.
  std::uint32_t Route(ObjectId id, std::uint64_t size,
                      const std::vector<std::uint64_t>& loads) const;

  /// Runs `op` on `shard` with its accounting. A request counts into the
  /// shard's record and its latency: kInline takes one service sample
  /// (there is no queue), kThreaded a queue wait from op.submit_ns, the
  /// service time and the total. `start_ns` is when execution began; the
  /// return value is the clock after it, so a drain loop chains one clock
  /// read per op. The op's Status lands in `*status`.
  std::uint64_t Execute(std::uint32_t shard, const ShardOp& op,
                        std::uint64_t start_ns, Status* status);

  /// The planning half of one rebalance scan, over the shards'
  /// reserved-footprint gauges: PlanRebalance, and — when deletes on the
  /// hot shard detach immediately — SelectRebalanceVictims into
  /// `*victims`. Empty victims: nothing to do.
  RebalancePlan PlanScan(std::vector<std::pair<ObjectId, Extent>>* victims);
  /// The source half: deletes the victims from plan.hot in order, stopping
  /// at the first that would defer its remove (a deamortized mid-flush
  /// source would leave the id placed while the destination re-places
  /// it), counting each migration out and repointing the map. Returns how
  /// many leading victims moved; each must then arrive on plan.cold as a
  /// kMigrateIn op, in order.
  std::size_t MigrateOut(
      const RebalancePlan& plan,
      const std::vector<std::pair<ObjectId, Extent>>& victims);

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

  Options options_;
  Mode mode_ = Mode::kInline;
  bool keeps_map_ = false;
  std::vector<Shard> shards_;
  std::vector<ShardCounters> counters_;  // parallel to shards_
  IdPlacementMap placement_;
  /// kInline with durability only: the listener on the shared parent.
  std::unique_ptr<ExecutingShardLog> log_forwarder_;
};

}  // namespace cosr

#endif  // COSR_SERVICE_SHARD_ENGINE_H_
