#include "cosr/core/checkpointed_reallocator.h"

#include <algorithm>
#include <limits>

#include "cosr/common/check.h"

namespace cosr {

CheckpointedReallocator::CheckpointedReallocator(Space* space,
                                                 Options options)
    : SizeClassLayout(space, options.epsilon) {
  COSR_CHECK_MSG(space_->checkpoint_manager() != nullptr,
                 "CheckpointedReallocator requires a CheckpointManager");
}

Status CheckpointedReallocator::Insert(ObjectId id, std::uint64_t size) {
  int cls = 0;
  COSR_RETURN_IF_ERROR(AdmitInsert(id, size, &cls));
  if (cls > max_size_class()) {
    CreateNewLargestClass(id, size, cls, /*already_placed=*/false);
    return Status::Ok();
  }
  if (TryBufferInsert(id, size, cls, /*already_placed=*/false)) {
    return Status::Ok();
  }

  // Insert-before-flush: place the object at the end of the last buffer
  // segment, filling and exceeding its capacity, then flush. L is the
  // reserved end before this placement; the new object sits at [L, L+w).
  const std::uint64_t structure_end = reserved_footprint();
  space_->Place(id, Extent{structure_end, size});
  Region& last = regions_.back();
  objects_.Insert(id, Filed(max_size_class(), cls, /*in_buffer=*/true,
                            last.buffer_entries.size()));
  last.buffer_entries.push_back(BufferEntry{id, size, cls});
  last.buffer_used += size;
  last.min_buffer_class = std::min(last.min_buffer_class, cls);
  NoteTempFootprint(structure_end + size);
  Flush(ComputeBoundary(cls), structure_end);
  return Status::Ok();
}

Status CheckpointedReallocator::Delete(ObjectId id) {
  ObjectInfo info;
  std::uint64_t size = 0;
  if (!ForgetObject(id, &info, &size)) {
    return Status::NotFound("object " + std::to_string(id));
  }
  space_->Remove(id);
  if (info.in_buffer || TryBufferDummy(size, info.size_class)) {
    return Status::Ok();
  }
  // No room for the dummy record: flush without consuming space for it.
  Flush(ComputeBoundary(info.size_class), reserved_footprint());
  return Status::Ok();
}

void CheckpointedReallocator::Flush(int boundary,
                                    std::uint64_t structure_end) {
  NoteTempFootprint(
      BuildFlushPlan(boundary, structure_end, 0, 0, {}).overflow_end);
  RunFlushPlan(std::numeric_limits<std::uint64_t>::max());
  CloseFlush();
}

CheckpointedReallocator::FlushArea CheckpointedReallocator::BuildFlushPlan(
    int boundary, std::uint64_t structure_end, std::uint64_t extra_buffer,
    std::uint64_t extra_end, const std::vector<BufferEntry>& extra_entries) {
  ++flush_count_;
  Notify(FlushEvent::Stage::kBegin, boundary);
  flush_first_checkpoint_ = checkpoints_taken_;
  boundary_ = boundary;

  const std::uint64_t suffix_end = PlanSuffix(boundary);
  const int maxc = max_size_class();
  std::uint64_t buffer_space = extra_buffer;  // the paper's B
  for (int i = boundary; i <= maxc; ++i) {
    buffer_space += regions_[static_cast<std::size_t>(i)].buffer_capacity;
  }
  // The paper uses L' = S' - w (desired footprint minus the triggering
  // insert). We keep the full S' instead: it guarantees every unpack move
  // shifts by at least B + ∆ >= the object's size, so moves are always
  // nonoverlapping even in small-structure corner cases, at the cost of at
  // most an extra ∆ of transient working space.
  const std::uint64_t work_area =
      std::max(structure_end, suffix_end + extra_end) + buffer_space + delta_;
  phase_limit_ = buffer_space + delta_;
  plan_.clear();
  plan_cursor_ = 0;
  stage_ = kEvacuate;
  phase_open_ = false;

  // Stage A: evacuate live buffered objects (including a triggering
  // insert) to [work_area, ...). Sources all end before L + ∆ <= work_area,
  // so a single inter-checkpoint window suffices.
  const std::uint64_t overflow_end =
      EvacuateBuffers(boundary, work_area, extra_entries, plan_);
  stage_end_[kEvacuate] = plan_.size();

  // Stage B: pack payloads rightward so that the last object ends at
  // work_area, largest class first. Every move shifts right by at least
  // B + ∆, hence never overlaps a live extent. Tombstones of deleted
  // payload objects are skipped here and in stage C.
  std::uint64_t cursor = work_area;
  for (int i = maxc; i >= boundary; --i) {
    const Region& r = regions_[static_cast<std::size_t>(i)];
    for (auto rit = r.payload_objects.rbegin();
         rit != r.payload_objects.rend(); ++rit) {
      if (*rit == kInvalidObjectId) continue;
      const std::uint64_t size = space_->extent_of(*rit).length;
      cursor -= size;
      plan_.push_back(MovePlan{*rit, Extent{cursor, size}});
    }
  }
  stage_end_[kPack] = plan_.size();

  // Stage C: unpack payloads leftward to their final positions, smallest
  // class first: stage B's objects in reverse, so each size is read back
  // from its stage B move.
  std::size_t packed = stage_end_[kPack];
  for (int i = boundary; i <= maxc; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    cursor = suffix_[idx].payload_start;
    for (ObjectId id : regions_[idx].payload_objects) {
      if (id == kInvalidObjectId) continue;
      const std::uint64_t size = plan_[--packed].to.length;
      plan_.push_back(MovePlan{id, Extent{cursor, size}});
      cursor += size;
    }
  }
  COSR_CHECK_EQ(packed, stage_end_[kEvacuate]);
  stage_end_[kUnpack] = plan_.size();

  // Stage D: move the evacuated objects to the ends of their payload
  // segments. Sources are at or beyond work_area, targets end before
  // L' + ∆ <= work_area: a single window suffices.
  PlanArrivals(boundary, plan_);
  stage_end_[kPlace] = plan_.size();
  return FlushArea{overflow_end, work_area + phase_limit_};
}

std::uint64_t CheckpointedReallocator::RunFlushPlan(std::uint64_t budget) {
  std::uint64_t done = 0;
  while (stage_ != kInstalled && done < budget) {
    if (plan_cursor_ == plan_.size()) {
      // Final checkpoint: persists the rebuilt translation map so the next
      // flush's working area (which may be lower) can reuse space freed
      // here.
      EndStage(kInstalled);
      InstallSuffix(boundary_);
      Notify(FlushEvent::Stage::kEnd, boundary_);
      break;
    }
    Stage stage = stage_;
    while (plan_cursor_ >= stage_end_[stage]) {
      stage = static_cast<Stage>(stage + 1);
    }
    if (stage != stage_) EndStage(stage);
    const MovePlan& m = plan_[plan_cursor_++];
    done += m.to.length;
    if (stage_ == kPack || stage_ == kUnpack) {
      // Phases cover at most B + ∆ of target addresses, with a checkpoint
      // (preceded by the phase's batch) between phases.
      const std::uint64_t low = std::min(phase_low_, m.to.offset);
      const std::uint64_t high = std::max(phase_high_, m.to.end());
      if (phase_open_ && high - low > phase_limit_) {
        FlushPlannedMoves();
        CheckpointNow();
        phase_open_ = false;
      }
      phase_low_ = phase_open_ ? low : m.to.offset;
      phase_high_ = phase_open_ ? high : m.to.end();
      phase_open_ = true;
    }
    const Extent& current = space_->extent_of(m.id);
    if (stage_ == kPack) COSR_CHECK_LE(current.offset, m.to.offset);
    if (stage_ == kUnpack) COSR_CHECK_LE(m.to.offset, current.offset);
    if (current.offset != m.to.offset) PlanMove(m.id, m.to);
  }
  // Budget exhausted mid-stage: apply what is staged so callers (and the
  // next slice) observe a consistent address space.
  FlushPlannedMoves();
  return done;
}

void CheckpointedReallocator::EndStage(Stage next) {
  // Apply the stage's batch, then checkpoint so the next stage may reuse
  // space freed by the previous one.
  FlushPlannedMoves();
  CheckpointNow();
  // Figure 3's states (ii)-(iv) follow stages A-C; (v) follows the install.
  static constexpr FlushEvent::Stage kReached[] = {
      FlushEvent::Stage::kBuffersEvacuated, FlushEvent::Stage::kCompacted,
      FlushEvent::Stage::kUnpacked};
  for (; stage_ < next; stage_ = static_cast<Stage>(stage_ + 1)) {
    if (stage_ < kPlace) Notify(kReached[stage_], boundary_);
  }
  phase_open_ = false;
}

void CheckpointedReallocator::CheckpointNow() {
  space_->Checkpoint();
  ++checkpoints_taken_;
}

void CheckpointedReallocator::CloseFlush() {
  checkpoints_in_last_flush_ = checkpoints_taken_ - flush_first_checkpoint_;
  max_checkpoints_per_flush_ =
      std::max(max_checkpoints_per_flush_, checkpoints_in_last_flush_);
}

}  // namespace cosr
