#include "cosr/core/deamortized_reallocator.h"

#include <algorithm>

#include "cosr/common/check.h"
#include "cosr/common/math_util.h"

namespace cosr {

DeamortizedReallocator::DeamortizedReallocator(Space* space,
                                               Options options)
    : CheckpointedReallocator(
          space, CheckpointedReallocator::Options{options.epsilon}) {
  COSR_CHECK(options.work_factor >= 2.0);
  work_budget_per_unit_ = options.work_factor / options.epsilon;
}

std::uint64_t DeamortizedReallocator::reserved_footprint() const {
  if (!active_) return TailStart() + tail_capacity_;
  // During a flush the structure extends through the working space and log.
  return std::max(log_cursor_, space_->footprint());
}

Status DeamortizedReallocator::Insert(ObjectId id, std::uint64_t size) {
  int cls = 0;
  COSR_RETURN_IF_ERROR(AdmitInsert(id, size, &cls));
  if (active_) {
    // Record at the end of the log; the object is active immediately.
    space_->Place(id, Extent{log_cursor_, size});
    log_cursor_ += size;
    NoteTempFootprint(log_cursor_);
    log_.push_back(LogEntry{/*is_delete=*/false, id, size, cls});
    objects_.Insert(id, Filed(kLogRegion, cls, /*in_buffer=*/true, 0));
  } else if (cls > max_size_class() && tail_entries_.empty()) {
    // With an empty tail the boundary can shift right for free: create
    // the new largest class directly, as in Section 2.
    CreateNewLargestClass(id, size, cls, /*already_placed=*/false);
  } else {
    AddRegionsThrough(cls);  // zero-capacity regions at the tail boundary
    if (!TryBufferInsert(id, size, cls, /*already_placed=*/false)) {
      TailInsert(id, size, cls, /*already_placed=*/false);
    }
  }
  AfterUpdate(size);
  return Status::Ok();
}

void DeamortizedReallocator::TailInsert(ObjectId id, std::uint64_t size,
                                        int cls, bool already_placed) {
  const std::uint64_t offset = TailStart() + tail_used_;
  if (already_placed && space_->extent_of(id).Overlaps(Extent{offset, size})) {
    // A logged object larger than the ∆ reserved when the flush began can
    // sit closer to its tail slot than its own length. Moves must not
    // overlap (Lemma 3.2), so hop past the log end first — disjoint from
    // both the log copy and the slot — and checkpoint before the final
    // move reuses the range the hop freed.
    MoveTracked(id, Extent{log_cursor_, size});
    NoteTempFootprint(log_cursor_ + size);
    CheckpointNow();
  }
  PlaceOrMove(id, Extent{offset, size}, already_placed);
  NoteTempFootprint(offset + size);
  objects_.Insert(id, Filed(kTailRegion, cls, /*in_buffer=*/true,
                            tail_entries_.size()));
  TailAppend(BufferEntry{id, size, cls});
}

void DeamortizedReallocator::TailAppend(const BufferEntry& entry) {
  tail_entries_.push_back(entry);
  tail_used_ += entry.size;
  tail_min_class_ = std::min(tail_min_class_, entry.size_class);
  if (tail_used_ >= tail_capacity_) RequestFlush(entry.size_class);
}

Status DeamortizedReallocator::Delete(ObjectId id) {
  ObjectInfo* info = objects_.Find(id);
  if (info == nullptr || info->pending_delete) {
    return Status::NotFound("object " + std::to_string(id));
  }
  std::uint64_t size = 0;
  if (active_) {
    // The object stays active (and keeps moving with the plan) until the
    // delete is replayed from the log; the log records consume space.
    size = space_->extent_of(id).length;
    info->pending_delete = 1;
    log_.push_back(LogEntry{/*is_delete=*/true, id, size, info->size_class});
    log_cursor_ += size;
    NoteTempFootprint(log_cursor_);
  } else {
    size = ApplyDelete(id);
  }
  AfterUpdate(size);
  return Status::Ok();
}

std::uint64_t DeamortizedReallocator::ApplyDelete(ObjectId id) {
  ObjectInfo info;
  std::uint64_t size = 0;
  COSR_CHECK(ForgetObject(id, &info, &size));
  space_->Remove(id);
  if (info.in_buffer || TryBufferDummy(size, info.size_class)) return size;
  if (tail_used_ + size <= tail_capacity_) {
    TailAppend(BufferEntry{kInvalidObjectId, size, info.size_class});
  } else {
    // The dummy would overflow the tail: flush without consuming space.
    RequestFlush(info.size_class);
  }
  return size;
}

void DeamortizedReallocator::RequestFlush(int trigger_class) {
  if (active_) {
    retrigger_ = true;  // drain in progress; flush again right after
  } else {
    BeginFlush(trigger_class);
  }
}

void DeamortizedReallocator::BeginFlush(int trigger_class) {
  COSR_CHECK(!active_);
  // Classes seen only in the tail (admitted without a region) materialize
  // regions now; zero-capacity regions do not move the tail boundary.
  int needed = trigger_class;
  for (const BufferEntry& e : tail_entries_) {
    needed = std::max(needed, e.size_class);
  }
  AddRegionsThrough(needed);

  int b = trigger_class;
  if (!tail_entries_.empty()) b = std::min(b, tail_min_class_);
  // The tail joins the flush: its capacity counts toward B, the next
  // tail (sized from the volume at this flush) toward the desired end, and
  // its live entries evacuate after the region buffers.
  const std::uint64_t structure_end =
      TailStart() + std::max(tail_used_, tail_capacity_);
  const std::uint64_t next_tail_capacity = FloorScale(epsilon_, total_volume_);
  const FlushArea area =
      BuildFlushPlan(ComputeBoundary(b), structure_end, tail_capacity_,
                     next_tail_capacity, tail_entries_);
  // Nothing reads the tail again before the plan installs: mid-flush
  // updates go to the log.
  tail_entries_.clear();
  tail_min_class_ = std::numeric_limits<int>::max();
  tail_capacity_ = next_tail_capacity;
  tail_used_ = 0;

  // The log begins after the working space.
  log_cursor_ = area.work_end;
  NoteTempFootprint(log_cursor_);
  active_ = true;
}

void DeamortizedReallocator::DoWork(std::uint64_t budget) {
  std::uint64_t done = RunFlushPlan(budget);
  // Past the install: drain the log (the re-insert / re-delete phase).
  while (done < budget) {
    if (log_head_ == log_.size()) {
      log_.clear();
      log_head_ = 0;
      FinishFlush();
      return;
    }
    const LogEntry entry = log_[log_head_++];
    done += entry.size;
    if (entry.is_delete) {
      ApplyDelete(entry.id);  // drops the pending mark with the entry
    } else {
      // The placement below re-files the logged object. A delete logged
      // after this insert keeps its mark until it replays.
      const bool pending = objects_.Find(entry.id)->pending_delete;
      if (!TryBufferInsert(entry.id, entry.size, entry.size_class,
                           /*already_placed=*/true)) {
        TailInsert(entry.id, entry.size, entry.size_class,
                   /*already_placed=*/true);
      }
      objects_.Find(entry.id)->pending_delete = pending;
    }
  }
}

void DeamortizedReallocator::FinishFlush() {
  // Release the regions freed while draining the log; the next flush's
  // working area (or log) may be lower than this flush's.
  CheckpointNow();
  CloseFlush();
  active_ = false;
  if (retrigger_ || (tail_used_ >= tail_capacity_ && !tail_entries_.empty())) {
    retrigger_ = false;
    BeginFlush(tail_entries_.empty() ? 1 : tail_min_class_);
  }
}

void DeamortizedReallocator::Quiesce() {
  while (active_) {
    DoWork(std::numeric_limits<std::uint64_t>::max() / 2);
  }
}

void DeamortizedReallocator::AfterUpdate(std::uint64_t op_size) {
  const std::uint64_t moved_before = moved_volume();
  const std::uint64_t checkpoints_before = checkpoints_taken();
  if (active_) {
    const double budget =
        work_budget_per_unit_ * static_cast<double>(op_size);
    DoWork(static_cast<std::uint64_t>(budget) + 1);
  }
  max_op_moved_volume_ =
      std::max(max_op_moved_volume_, moved_volume() - moved_before);
  max_checkpoints_per_op_ = std::max(max_checkpoints_per_op_,
                                     checkpoints_taken() - checkpoints_before);
}

Status DeamortizedReallocator::CheckInvariants() const {
  if (active_) {
    // Mid-flush the layout is transitional; verify only physical
    // consistency of the address space.
    if (!space_->SelfCheck()) {
      return Status::Internal("address space inconsistent mid-flush");
    }
    return Status::Ok();
  }
  std::vector<std::uint64_t> class_volume(volumes_.size(), 0);
  std::uint64_t total = 0;
  std::size_t object_count = 0;
  COSR_RETURN_IF_ERROR(CheckRegions(class_volume, total, object_count));
  // The tail takes entries of any class, packed in order from its start.
  std::uint64_t tail_used = 0;
  COSR_RETURN_IF_ERROR(CheckBufferEntries(
      tail_entries_, TailStart(), kTailRegion, std::numeric_limits<int>::max(),
      tail_used, class_volume, total, object_count));
  if (tail_used != tail_used_) {
    return Status::Internal("tail accounting mismatch");
  }
  return CheckAccounting(class_volume, total, object_count);
}

}  // namespace cosr
