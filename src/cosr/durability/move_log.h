#ifndef COSR_DURABILITY_MOVE_LOG_H_
#define COSR_DURABILITY_MOVE_LOG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cosr/common/types.h"
#include "cosr/durability/group_commit.h"
#include "cosr/durability/log_record.h"
#include "cosr/durability/log_sink.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/space.h"

namespace cosr {

/// The write-ahead move log of the durability tier: journals every storage
/// event of one shard — place, remove, and each ApplyMoves batch at its
/// existing batch boundary — as framed records into a LogSink, plus the
/// checkpoint records that make a prefix recoverable.
///
/// Wiring (what the factory's ReallocatorSpec::durability option sets up):
///   * registered as a SpaceListener, so every flush path's batch lands as
///     one kMoveBatch record with zero changes to the algorithms;
///   * attached to the shard's CheckpointManager
///     (AttachDurabilityLog), so completing a checkpoint appends a
///     kCheckpoint record and — per the GroupCommitPolicy — issues the one
///     Sync() of the discipline. With the default policy every checkpoint
///     syncs; a coalescing policy defers the fsync across up to
///     max_unsynced_checkpoints checkpoints, trading a bounded durability
///     window for one fsync per group.
///
/// Checkpoint-time compaction: when the policy sets
/// compaction_threshold_bytes, a durable (just-synced) checkpoint whose log
/// has grown past the threshold triggers Compact() — the log is atomically
/// rewritten (LogSink::BeginRewrite/CommitRewrite) to one kPlace record per
/// live extent plus that checkpoint record, so recovery replays bounded
/// history instead of the full op stream. The live extents are read from
/// the space the log journals (BindSpace): at a checkpoint the log's
/// records have been applied to it, so its bound range holds exactly the
/// extents that replaying the log would rebuild.
///
/// RecoveryManager replays the resulting stream (possibly truncated) and
/// reconstructs the exact map as of the last checkpoint record that
/// survived — under coalescing that is at least the last synced one.
///
/// Thread-compatible: one log per shard, driven only by the shard's owning
/// thread (the facades scope exactly this way).
class MoveLog final : public SpaceListener, public CheckpointDurabilityLog {
 public:
  /// `sink` must outlive the log. The default policy is the strict
  /// sync-every-checkpoint discipline.
  explicit MoveLog(LogSink* sink, GroupCommitPolicy policy = {})
      : sink_(sink), policy_(policy) {
    scratch_.reserve(kScratchReserveBytes);
  }
  MoveLog(const MoveLog&) = delete;
  MoveLog& operator=(const MoveLog&) = delete;

  // SpaceListener — the data plane.
  void OnPlace(ObjectId id, const Extent& extent) override;
  void OnMove(ObjectId id, const Extent& from, const Extent& to) override;
  void OnMoves(const MoveRecord* records, std::size_t count) override;
  void OnRemove(ObjectId id, const Extent& extent) override;

  // CheckpointDurabilityLog — the checkpoint boundary: append the record,
  // then Sync when the policy's coalescing window closes (every call with
  // the default policy), then compact when the threshold is crossed.
  void LogCheckpoint(std::uint64_t seq) override;

  /// Binds the space whose [lo, hi) range holds exactly the objects this
  /// log journals, in the coordinates of its records (the root
  /// coordinates listeners see). Compaction snapshots that range; a log
  /// with a compaction threshold must be bound before its first
  /// compaction.
  void BindSpace(const Space* space, std::uint64_t lo = 0,
                 std::uint64_t hi = ~std::uint64_t{0}) {
    space_ = space;
    space_lo_ = lo;
    space_hi_ = hi;
  }

  LogSink* sink() const { return sink_; }
  const GroupCommitPolicy& policy() const { return policy_; }
  std::uint64_t records_written() const { return records_written_; }
  std::uint64_t bytes_written() const { return sink_->size(); }
  std::uint64_t places_logged() const { return places_logged_; }
  std::uint64_t removes_logged() const { return removes_logged_; }
  std::uint64_t batches_logged() const { return batches_logged_; }
  std::uint64_t moves_logged() const { return moves_logged_; }
  std::uint64_t checkpoints_logged() const { return checkpoints_logged_; }
  /// Committed compactions, and the live-extent count snapshotted by the
  /// most recent one.
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t last_compaction_live_records() const {
    return last_compaction_live_records_;
  }
  /// Checkpoints logged since the last Sync() (the open coalescing
  /// window; 0 right after a sync).
  std::uint32_t unsynced_checkpoints() const { return unsynced_checkpoints_; }

 private:
  /// Pre-sized encode scratch: covers every fixed-size record and typical
  /// move batches without reallocation (a batch of ~7 moves fits).
  static constexpr std::size_t kScratchReserveBytes = 256;

  void AppendScratch();
  /// Rewrites the log to live-extent snapshot + checkpoint `seq`. Only
  /// called right after the sync that made checkpoint `seq` durable, so
  /// the snapshot IS the durable state — a crash before CommitRewrite
  /// leaves the old (already durable through seq) log, a crash after it
  /// leaves the compacted one, and both recover to the same map.
  void Compact(std::uint64_t seq);

  LogSink* sink_;
  GroupCommitPolicy policy_;
  const Space* space_ = nullptr;  // BindSpace: the compaction source
  std::uint64_t space_lo_ = 0;
  std::uint64_t space_hi_ = 0;
  std::vector<std::uint8_t> scratch_;  // reused per-record encode buffer
  std::uint64_t records_written_ = 0;
  std::uint64_t places_logged_ = 0;
  std::uint64_t removes_logged_ = 0;
  std::uint64_t batches_logged_ = 0;
  std::uint64_t moves_logged_ = 0;
  std::uint64_t checkpoints_logged_ = 0;
  std::uint32_t unsynced_checkpoints_ = 0;
  std::uint64_t bytes_since_compaction_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t last_compaction_live_records_ = 0;
};

}  // namespace cosr

#endif  // COSR_DURABILITY_MOVE_LOG_H_
