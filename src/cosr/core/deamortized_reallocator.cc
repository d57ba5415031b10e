#include "cosr/core/deamortized_reallocator.h"

#include <algorithm>

#include "cosr/common/check.h"
#include "cosr/common/math_util.h"
#include "cosr/core/size_class.h"

namespace cosr {

DeamortizedReallocator::DeamortizedReallocator(Space* space,
                                               Options options)
    : SizeClassLayout(space, options.epsilon) {
  COSR_CHECK_MSG(space_->checkpoint_manager() != nullptr,
                 "DeamortizedReallocator requires a CheckpointManager");
  COSR_CHECK(options.work_factor >= 2.0);
  work_budget_per_unit_ = options.work_factor / options.epsilon;
}

void DeamortizedReallocator::ExtendClasses(int cls) {
  const std::uint64_t end = regions_.back().region_end();
  while (max_size_class() < cls) {
    Region r;
    r.payload_start = end;
    regions_.push_back(r);
    volumes_.push_back(0);
  }
}

std::uint64_t DeamortizedReallocator::reserved_footprint() const {
  if (!active_) return TailStart() + tail_capacity_;
  // During a flush the structure extends through the working space and log.
  return std::max(log_cursor_, space_->footprint());
}

Status DeamortizedReallocator::Insert(ObjectId id, std::uint64_t size) {
  if (size == 0) return Status::InvalidArgument("size must be positive");
  if (objects_.count(id) > 0) {
    return Status::AlreadyExists("object " + std::to_string(id));
  }
  const int cls = SizeClassOf(size);
  delta_ = std::max(delta_, size);

  if (active_) {
    // Record at the end of the log; the object is active immediately.
    space_->Place(id, Extent{log_cursor_, size});
    log_cursor_ += size;
    NoteTempFootprint(log_cursor_);
    log_.push_back(LogEntry{/*is_delete=*/false, id, size, cls});
    if (cls >= static_cast<int>(volumes_.size())) {
      volumes_.resize(static_cast<std::size_t>(cls) + 1, 0);
    }
    volumes_[static_cast<std::size_t>(cls)] += size;
    total_volume_ += size;
    objects_.emplace(id, ObjectInfo{size, cls, /*in_buffer=*/true,
                                    kLogRegion});
    AfterUpdate(size);
    return Status::Ok();
  }

  if (cls > max_size_class()) {
    if (tail_entries_.empty()) {
      // With an empty tail the boundary can shift right for free: create
      // the new largest class directly, as in Section 2.
      CreateNewLargestClass(id, size, cls, /*already_placed=*/false);
      AfterUpdate(size);
      return Status::Ok();
    }
    ExtendClasses(cls);  // zero-capacity regions at the tail boundary
  }
  if (cls >= static_cast<int>(volumes_.size())) {
    volumes_.resize(static_cast<std::size_t>(cls) + 1, 0);
  }
  volumes_[static_cast<std::size_t>(cls)] += size;
  total_volume_ += size;

  if (!TryBufferInsert(id, size, cls, /*already_placed=*/false)) {
    TailInsert(id, size, cls, /*already_placed=*/false);
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
  tail_entries_.push_back(BufferEntry{id, size, cls});
  tail_used_ += size;
  tail_min_class_ = std::min(tail_min_class_, cls);
  objects_[id] = ObjectInfo{size, cls, /*in_buffer=*/true, kTailRegion};
  if (tail_used_ >= tail_capacity_) {
    if (active_) {
      retrigger_ = true;  // drain in progress; flush again right after
    } else {
      BeginFlush(cls);
    }
  }
}

Status DeamortizedReallocator::Delete(ObjectId id) {
  auto it = objects_.find(id);
  if (it == objects_.end() || pending_delete_.count(id) > 0) {
    return Status::NotFound("object " + std::to_string(id));
  }
  const std::uint64_t size = it->second.size;
  const int cls = it->second.size_class;

  if (active_) {
    // The object stays active (and keeps moving with the plan) until the
    // delete is replayed from the log; the log records consume space.
    pending_delete_.insert(id);
    log_.push_back(LogEntry{/*is_delete=*/true, id, size, cls});
    log_cursor_ += size;
    NoteTempFootprint(log_cursor_);
    AfterUpdate(size);
    return Status::Ok();
  }

  ApplyDelete(id);
  AfterUpdate(size);
  return Status::Ok();
}

void DeamortizedReallocator::ApplyDelete(ObjectId id) {
  auto it = objects_.find(id);
  COSR_CHECK(it != objects_.end());
  const ObjectInfo info = it->second;
  objects_.erase(it);
  volumes_[static_cast<std::size_t>(info.size_class)] -= info.size;
  total_volume_ -= info.size;
  space_->Remove(id);

  if (info.region == kTailRegion) {
    for (BufferEntry& entry : tail_entries_) {
      if (entry.id == id) {
        entry.id = kInvalidObjectId;  // dummy record; space stays consumed
        return;
      }
    }
    COSR_CHECK_MSG(false, "tail entry missing for object " +
                              std::to_string(id));
  }
  if (info.in_buffer) {
    Region& home = regions_[static_cast<std::size_t>(info.region)];
    for (BufferEntry& entry : home.buffer_entries) {
      if (entry.id == id) {
        entry.id = kInvalidObjectId;
        return;
      }
    }
    COSR_CHECK_MSG(false, "buffer entry missing for object " +
                              std::to_string(id));
  }

  Region& home = regions_[static_cast<std::size_t>(info.region)];
  ErasePayloadObject(home, id, info.size);

  if (TryBufferDummy(info.size, info.size_class)) return;
  if (tail_used_ + info.size <= tail_capacity_) {
    tail_entries_.push_back(
        BufferEntry{kInvalidObjectId, info.size, info.size_class});
    tail_used_ += info.size;
    tail_min_class_ = std::min(tail_min_class_, info.size_class);
    if (tail_used_ >= tail_capacity_) {
      if (active_) {
        retrigger_ = true;
      } else {
        BeginFlush(info.size_class);
      }
    }
    return;
  }
  // The dummy would overflow the tail: flush without consuming space.
  if (active_) {
    retrigger_ = true;
  } else {
    BeginFlush(info.size_class);
  }
}

void DeamortizedReallocator::CheckpointNow() {
  space_->Checkpoint();
  ++checkpoints_this_op_;
}

void DeamortizedReallocator::BeginFlush(int trigger_class) {
  COSR_CHECK(!active_);
  ++flush_count_;

  // Classes seen only in the tail (admitted without a region) materialize
  // regions now; zero-capacity regions do not move the tail boundary.
  int needed = trigger_class;
  for (const BufferEntry& e : tail_entries_) {
    needed = std::max(needed, e.size_class);
  }
  ExtendClasses(needed);
  if (needed >= static_cast<int>(volumes_.size())) {
    volumes_.resize(static_cast<std::size_t>(needed) + 1, 0);
  }

  const int maxc = max_size_class();
  int b = trigger_class;
  if (!tail_entries_.empty()) b = std::min(b, tail_min_class_);
  b = ComputeBoundary(b);
  boundary_ = b;
  Notify(FlushEvent::Stage::kBegin, b);

  next_tail_capacity_ = FloorScale(epsilon_, total_volume_);

  const std::uint64_t start =
      regions_[static_cast<std::size_t>(b)].payload_start;
  region_plans_.assign(static_cast<std::size_t>(maxc) + 1, RegionPlan{});
  std::uint64_t new_suffix_end = start;
  std::uint64_t buffer_space = tail_capacity_;  // the paper's B (incl. tail)
  for (int i = b; i <= maxc; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    region_plans_[idx].payload_capacity = volumes_[idx];
    region_plans_[idx].buffer_capacity = FloorScale(epsilon_, volumes_[idx]);
    region_plans_[idx].payload_start = new_suffix_end;
    new_suffix_end += region_plans_[idx].payload_capacity +
                      region_plans_[idx].buffer_capacity;
    buffer_space += regions_[idx].buffer_capacity;
  }
  const std::uint64_t structure_end =
      TailStart() + std::max(tail_used_, tail_capacity_);
  const std::uint64_t desired_end = new_suffix_end + next_tail_capacity_;
  const std::uint64_t work_area =
      std::max(structure_end, desired_end) + buffer_space + delta_;
  phase_limit_ = buffer_space + delta_;

  plan_.clear();
  plan_cursor_ = 0;

  // Stage A: evacuate live buffered objects (region buffers, then tail) to
  // the overflow area at [work_area, ...), recording each object's final
  // region for stage D.
  std::uint64_t overflow = work_area;
  std::vector<std::vector<std::pair<ObjectId, std::uint64_t>>>
      overflow_by_class(static_cast<std::size_t>(maxc) + 1);
  auto evacuate = [&](const BufferEntry& entry) {
    if (!entry.live()) return;
    plan_.push_back(
        PlannedMove{entry.id, overflow, entry.size, Stage::kEvacuate});
    overflow_by_class[static_cast<std::size_t>(entry.size_class)]
        .emplace_back(entry.id, entry.size);
    overflow += entry.size;
  };
  for (int i = b; i <= maxc; ++i) {
    Region& r = regions_[static_cast<std::size_t>(i)];
    for (const BufferEntry& entry : r.buffer_entries) evacuate(entry);
    r.ResetBuffer();
  }
  for (const BufferEntry& entry : tail_entries_) evacuate(entry);
  tail_entries_.clear();
  tail_min_class_ = std::numeric_limits<int>::max();
  // tail_used_/tail_capacity_ stay until install (footprint accounting).

  // Stage B: pack payloads rightward ending at work_area (largest class
  // first, descending offsets).
  std::uint64_t pack_cursor = work_area;
  for (int i = maxc; i >= b; --i) {
    Region& r = regions_[static_cast<std::size_t>(i)];
    for (auto rit = r.payload_objects.rbegin();
         rit != r.payload_objects.rend(); ++rit) {
      const std::uint64_t size = objects_.at(*rit).size;
      pack_cursor -= size;
      plan_.push_back(PlannedMove{*rit, pack_cursor, size, Stage::kPack});
    }
  }

  // Stage C: unpack payloads to their final positions (smallest class
  // first, ascending offsets).
  for (int i = b; i <= maxc; ++i) {
    Region& r = regions_[static_cast<std::size_t>(i)];
    std::uint64_t cursor =
        region_plans_[static_cast<std::size_t>(i)].payload_start;
    for (ObjectId id : r.payload_objects) {
      const std::uint64_t size = objects_.at(id).size;
      plan_.push_back(PlannedMove{id, cursor, size, Stage::kUnpack});
      cursor += size;
    }
    // Stage D continues from here: overflow arrivals at the payload end.
    for (const auto& [id, size] : overflow_by_class[static_cast<std::size_t>(
             i)]) {
      plan_.push_back(PlannedMove{id, cursor, size, Stage::kPlace});
      region_plans_[static_cast<std::size_t>(i)].arrivals.push_back(id);
      cursor += size;
    }
  }
  // Reorder: stage D moves must run after all stage C moves. Stable
  // partition preserves the per-stage ordering.
  std::stable_partition(plan_.begin(), plan_.end(),
                        [](const PlannedMove& m) {
                          return m.stage != Stage::kPlace;
                        });

  // The log begins after the overflow working space.
  log_cursor_ = work_area + buffer_space + delta_;
  NoteTempFootprint(log_cursor_);

  active_ = true;
  installed_ = false;
  current_stage_ = Stage::kEvacuate;
  phase_open_ = false;
  phase_low_ = 0;
  phase_high_ = 0;
}

void DeamortizedReallocator::DoWork(std::uint64_t budget) {
  std::uint64_t done = 0;
  while (active_ && done < budget) {
    if (plan_cursor_ < plan_.size()) {
      const PlannedMove& m = plan_[plan_cursor_];
      if (m.stage != current_stage_) {
        // Stage boundary: apply the staged batch, then checkpoint so the
        // next stage may reuse space freed by the previous one.
        FlushPlannedMoves();
        CheckpointNow();
        current_stage_ = m.stage;
        phase_open_ = false;
      }
      if (m.stage == Stage::kPack) {
        if (phase_open_ && phase_high_ - m.target > phase_limit_) {
          FlushPlannedMoves();
          CheckpointNow();
          phase_open_ = false;
        }
        if (!phase_open_) {
          phase_high_ = m.target + m.size;
          phase_open_ = true;
        }
      } else if (m.stage == Stage::kUnpack) {
        if (phase_open_ && m.target + m.size - phase_low_ > phase_limit_) {
          FlushPlannedMoves();
          CheckpointNow();
          phase_open_ = false;
        }
        if (!phase_open_) {
          phase_low_ = m.target;
          phase_open_ = true;
        }
      }
      const Extent& current = space_->extent_of(m.id);
      if (current.offset != m.target) {
        PlanMove(m.id, Extent{m.target, m.size});
      }
      done += m.size;
      ++plan_cursor_;
      continue;
    }
    if (!installed_) {
      FlushPlannedMoves();
      CheckpointNow();
      InstallMetadata();
      installed_ = true;
      Notify(FlushEvent::Stage::kUnpacked, boundary_);
      continue;
    }
    if (log_.empty()) {
      FinishFlush();
      return;
    }
    // Drain one log entry (the re-insert / re-delete phase).
    const LogEntry entry = log_.front();
    log_.pop_front();
    done += entry.size;
    if (entry.is_delete) {
      pending_delete_.erase(entry.id);
      ApplyDelete(entry.id);
    } else {
      objects_.erase(entry.id);  // re-filed by the placement below
      if (!TryBufferInsert(entry.id, entry.size, entry.size_class,
                           /*already_placed=*/true)) {
        TailInsert(entry.id, entry.size, entry.size_class,
                   /*already_placed=*/true);
      }
    }
  }
  // Budget exhausted mid-stage: apply what is staged so callers (and the
  // next DoWork slice) observe a consistent address space.
  FlushPlannedMoves();
}

void DeamortizedReallocator::InstallMetadata() {
  const int maxc = max_size_class();
  for (int i = boundary_; i <= maxc; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    Region& r = regions_[idx];
    const RegionPlan& plan = region_plans_[idx];
    r.payload_start = plan.payload_start;
    r.payload_capacity = plan.payload_capacity;
    r.buffer_capacity = plan.buffer_capacity;
    for (ObjectId id : plan.arrivals) {
      ObjectInfo& info = objects_.at(id);
      AppendPayloadObject(r, id, info.size);
      info.in_buffer = false;
      info.region = i;
    }
  }
  tail_capacity_ = next_tail_capacity_;
  tail_used_ = 0;
}

void DeamortizedReallocator::FinishFlush() {
  // Release the regions freed while draining the log; the next flush's
  // working area (or log) may be lower than this flush's.
  CheckpointNow();
  active_ = false;
  installed_ = false;
  Notify(FlushEvent::Stage::kEnd, boundary_);
  if (retrigger_ || (tail_used_ >= tail_capacity_ && !tail_entries_.empty())) {
    retrigger_ = false;
    const int cls = tail_entries_.empty()
                        ? 1
                        : tail_min_class_;
    BeginFlush(cls);
  }
}

void DeamortizedReallocator::Quiesce() {
  while (active_) {
    DoWork(std::numeric_limits<std::uint64_t>::max() / 2);
  }
}

void DeamortizedReallocator::AfterUpdate(std::uint64_t op_size) {
  checkpoints_this_op_ = 0;
  const std::uint64_t moved_before = moved_volume();
  if (active_) {
    const double budget =
        work_budget_per_unit_ * static_cast<double>(op_size);
    DoWork(static_cast<std::uint64_t>(budget) + 1);
  }
  const std::uint64_t op_moved = moved_volume() - moved_before;
  max_op_moved_volume_ = std::max(max_op_moved_volume_, op_moved);
  max_checkpoints_per_op_ =
      std::max(max_checkpoints_per_op_, checkpoints_this_op_);
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

  // Tail buffer accounting.
  std::uint64_t tail_used = 0;
  std::uint64_t cursor = TailStart();
  for (const BufferEntry& entry : tail_entries_) {
    if (entry.live()) {
      auto it = objects_.find(entry.id);
      if (it == objects_.end()) {
        return Status::Internal("tail object without bookkeeping");
      }
      const ObjectInfo& info = it->second;
      if (!info.in_buffer || info.region != kTailRegion ||
          info.size != entry.size) {
        return Status::Internal("tail object misfiled");
      }
      const Extent& e = space_->extent_of(entry.id);
      if (e.offset != cursor || e.length != entry.size) {
        return Status::Internal("tail object not packed in order");
      }
      class_volume[static_cast<std::size_t>(entry.size_class)] += entry.size;
      total += entry.size;
      ++object_count;
    }
    cursor += entry.size;
    tail_used += entry.size;
  }
  if (tail_used != tail_used_) {
    return Status::Internal("tail accounting mismatch");
  }

  for (std::size_t i = 1; i < volumes_.size(); ++i) {
    if (class_volume[i] != volumes_[i]) {
      return Status::Internal("volume accounting mismatch for class " +
                              std::to_string(i));
    }
  }
  if (total != total_volume_ || total != space_->live_volume() ||
      object_count != objects_.size() ||
      object_count != space_->object_count()) {
    return Status::Internal("global volume/object accounting mismatch");
  }
  if (space_->footprint() > reserved_footprint()) {
    return Status::Internal("object beyond the reserved structure end");
  }
  return Status::Ok();
}

}  // namespace cosr
