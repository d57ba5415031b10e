#include "cosr/durability/move_log.h"

#include "cosr/common/check.h"

namespace cosr {

void MoveLog::AppendScratch() {
  sink_->Append(scratch_.data(), scratch_.size());
  bytes_since_compaction_ += scratch_.size();
  scratch_.clear();
  ++records_written_;
}

void MoveLog::OnPlace(ObjectId id, const Extent& extent) {
  EncodePlaceRecord(id, extent, &scratch_);
  AppendScratch();
  ++places_logged_;
}

void MoveLog::OnMove(ObjectId id, const Extent& from, const Extent& to) {
  // A singleton move is a batch of one: the unbatched Move() path and the
  // ApplyMoves path replay through the same record type.
  MoveRecord record{id, from, to};
  OnMoves(&record, 1);
}

void MoveLog::OnMoves(const MoveRecord* records, std::size_t count) {
  if (count == 0) return;
  EncodeMoveBatchRecord(records, count, &scratch_);
  AppendScratch();
  ++batches_logged_;
  moves_logged_ += count;
}

void MoveLog::OnRemove(ObjectId id, const Extent& extent) {
  EncodeRemoveRecord(id, extent, &scratch_);
  AppendScratch();
  ++removes_logged_;
}

void MoveLog::LogCheckpoint(std::uint64_t seq) {
  EncodeCheckpointRecord(seq, &scratch_);
  AppendScratch();
  ++checkpoints_logged_;
  ++unsynced_checkpoints_;
  if (policy_.max_unsynced_checkpoints == 0 ||
      unsynced_checkpoints_ < policy_.max_unsynced_checkpoints) {
    return;
  }
  sink_->Sync();
  unsynced_checkpoints_ = 0;
  // Compaction only ever follows a sync: the snapshot it writes must be
  // the durable state, not a speculative tail.
  if (policy_.compaction_threshold_bytes > 0 &&
      bytes_since_compaction_ >= policy_.compaction_threshold_bytes) {
    Compact(seq);
  }
}

void MoveLog::Compact(std::uint64_t seq) {
  COSR_CHECK_MSG(space_ != nullptr,
                 "a compacting MoveLog needs a bound space (BindSpace)");
  // Deterministic snapshot order (by physical offset — live extents are
  // disjoint, so offsets are unique) keeps compacted streams reproducible
  // across runs and replay cache-friendly. The space walks its range in
  // that order, so nothing is copied or sorted here.
  std::uint64_t live = 0;
  sink_->BeginRewrite();
  space_->ForEachInRange(space_lo_, space_hi_,
                         [&](ObjectId id, const Extent& extent) {
                           EncodePlaceRecord(id, extent, &scratch_);
                           sink_->Append(scratch_.data(), scratch_.size());
                           scratch_.clear();
                           ++live;
                         });
  EncodeCheckpointRecord(seq, &scratch_);
  sink_->Append(scratch_.data(), scratch_.size());
  scratch_.clear();
  sink_->CommitRewrite();
  ++compactions_;
  last_compaction_live_records_ = live;
  bytes_since_compaction_ = 0;
}

}  // namespace cosr
