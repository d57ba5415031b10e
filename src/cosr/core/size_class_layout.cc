#include "cosr/core/size_class_layout.h"

#include <algorithm>

#include "cosr/common/check.h"
#include "cosr/common/math_util.h"
#include "cosr/core/size_class.h"

namespace cosr {

SizeClassLayout::SizeClassLayout(Space* space, double epsilon)
    : space_(space), epsilon_(epsilon) {
  COSR_CHECK(space_ != nullptr);
  COSR_CHECK(epsilon_ > 0.0 && epsilon_ <= 1.0);
  regions_.resize(1);  // region 0 is unused; classes are 1-based
  volumes_.resize(65, 0);  // SizeClassOf of a 64-bit size is at most 64
}

const Region& SizeClassLayout::region(int size_class) const {
  COSR_CHECK(size_class >= 1 && size_class <= max_size_class());
  return regions_[static_cast<std::size_t>(size_class)];
}

std::uint64_t SizeClassLayout::volume_in_class(int size_class) const {
  COSR_CHECK(size_class >= 1 && size_class <= max_size_class());
  return volumes_[static_cast<std::size_t>(size_class)];
}

Status SizeClassLayout::AdmitInsert(ObjectId id, std::uint64_t size,
                                    int* cls) {
  if (size == 0) return Status::InvalidArgument("size must be positive");
  if (objects_.Find(id) != nullptr) {
    return Status::AlreadyExists("object " + std::to_string(id));
  }
  *cls = SizeClassOf(size);
  delta_ = std::max(delta_, size);
  volumes_[static_cast<std::size_t>(*cls)] += size;
  total_volume_ += size;
  return Status::Ok();
}

bool SizeClassLayout::ForgetObject(ObjectId id, ObjectInfo* info,
                                   std::uint64_t* size) {
  if (!objects_.Erase(id, info)) return false;
  *size = space_->extent_of(id).length;
  volumes_[info->size_class] -= *size;
  total_volume_ -= *size;
  if (info->in_buffer) {
    BufferEntry& entry = BufferEntries(info->region)[info->position];
    COSR_CHECK_EQ(entry.id, id);
    entry.id = kInvalidObjectId;
    return true;
  }
  ErasePayloadObject(regions_[static_cast<std::size_t>(info->region)],
                     info->position, id, *size);
  return true;
}

void SizeClassLayout::PlaceOrMove(ObjectId id, const Extent& extent,
                                  bool already_placed) {
  if (already_placed) {
    MoveTracked(id, extent);
  } else {
    space_->Place(id, extent);
  }
}

void SizeClassLayout::MoveTracked(ObjectId id, const Extent& to) {
  const std::uint64_t size = space_->extent_of(id).length;
  space_->Move(id, to);
  ++move_count_;
  moved_volume_ += size;
}

void SizeClassLayout::FlushPlannedMoves() {
  if (move_batch_.empty()) return;
  space_->ApplyMoves(move_batch_.data(), move_batch_.size());
  move_count_ += move_batch_.size();
  for (const MovePlan& plan : move_batch_) moved_volume_ += plan.to.length;
  move_batch_.clear();
}

void SizeClassLayout::Notify(FlushEvent::Stage stage, int boundary) {
  if (flush_listener_ == nullptr) return;
  FlushEvent event;
  event.stage = stage;
  event.boundary_class = boundary;
  flush_listener_->OnFlushEvent(event);
}

void SizeClassLayout::NoteTempFootprint(std::uint64_t end) {
  max_temp_footprint_ = std::max(max_temp_footprint_, end);
}

void SizeClassLayout::ErasePayloadObject(Region& region,
                                         std::size_t position, ObjectId id,
                                         std::uint64_t size) {
  COSR_CHECK_EQ(region.payload_objects[position], id);
  region.payload_objects[position] = kInvalidObjectId;
  ++region.payload_holes;
  region.payload_live -= size;
}

void SizeClassLayout::CompactPayloadList(Region& region) {
  std::vector<ObjectId>& list = region.payload_objects;
  // Objects before the first tombstone keep their positions.
  auto keep = std::find(list.begin(), list.end(), kInvalidObjectId);
  for (auto it = keep; it != list.end(); ++it) {
    if (*it == kInvalidObjectId) continue;
    objects_.Find(*it)->position =
        static_cast<std::uint32_t>(keep - list.begin());
    *keep++ = *it;
  }
  list.erase(keep, list.end());
  region.payload_holes = 0;
}

bool SizeClassLayout::TryBufferInsert(ObjectId id, std::uint64_t size,
                                      int cls, bool already_placed) {
  for (int j = cls; j <= BufferSearchLimit(cls); ++j) {
    Region& r = regions_[static_cast<std::size_t>(j)];
    if (r.buffer_free() < size) continue;
    const std::uint64_t offset = r.buffer_start() + r.buffer_used;
    PlaceOrMove(id, Extent{offset, size}, already_placed);
    objects_.Insert(id, Filed(j, cls, /*in_buffer=*/true,
                              r.buffer_entries.size()));
    r.buffer_entries.push_back(BufferEntry{id, size, cls});
    r.buffer_used += size;
    r.min_buffer_class = std::min(r.min_buffer_class, cls);
    return true;
  }
  return false;
}

bool SizeClassLayout::TryBufferDummy(std::uint64_t size, int cls) {
  for (int j = cls; j <= BufferSearchLimit(cls); ++j) {
    Region& r = regions_[static_cast<std::size_t>(j)];
    if (r.buffer_free() < size) continue;
    r.buffer_entries.push_back(BufferEntry{kInvalidObjectId, size, cls});
    r.buffer_used += size;
    r.min_buffer_class = std::min(r.min_buffer_class, cls);
    return true;
  }
  return false;
}

void SizeClassLayout::AddRegionsThrough(int cls) {
  const std::uint64_t end = regions_.back().region_end();
  while (max_size_class() < cls) {
    Region r;
    r.payload_start = end;
    regions_.push_back(r);
  }
}

void SizeClassLayout::CreateNewLargestClass(ObjectId id, std::uint64_t size,
                                            int cls, bool already_placed) {
  AddRegionsThrough(cls);
  Region& r = regions_.back();
  r.payload_capacity = size;
  r.buffer_capacity = FloorScale(epsilon_, size);
  PlaceOrMove(id, Extent{r.payload_start, size}, already_placed);
  objects_.Insert(id, Filed(cls, cls, /*in_buffer=*/false,
                            AppendPayloadObject(r, id, size)));
  NoteTempFootprint(reserved_footprint());
}

int SizeClassLayout::ComputeBoundary(int trigger_class) const {
  int b = trigger_class;
  for (int j = max_size_class(); j >= 1; --j) {
    if (j < b) break;
    const Region& r = regions_[static_cast<std::size_t>(j)];
    if (!r.buffer_entries.empty()) b = std::min(b, r.min_buffer_class);
  }
  return b;
}

std::uint64_t SizeClassLayout::PlanSuffix(int boundary) {
  const int maxc = max_size_class();
  COSR_CHECK(boundary >= 1 && boundary <= maxc);
  if (suffix_.size() < regions_.size()) suffix_.resize(regions_.size());
  std::uint64_t end =
      regions_[static_cast<std::size_t>(boundary)].payload_start;
  for (int i = boundary; i <= maxc; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    RegionPlan& plan = suffix_[idx];
    plan.payload_start = end;
    plan.payload_capacity = volumes_[idx];
    plan.buffer_capacity = FloorScale(epsilon_, volumes_[idx]);
    plan.arrivals.clear();
    end += plan.payload_capacity + plan.buffer_capacity;
  }
  return end;
}

std::uint64_t SizeClassLayout::EvacuateBuffers(
    int boundary, std::uint64_t overflow,
    const std::vector<BufferEntry>& extra, std::vector<MovePlan>& moves) {
  auto evacuate = [&](const BufferEntry& entry) {
    if (!entry.live()) return;  // dummy records are dropped
    moves.push_back(MovePlan{entry.id, Extent{overflow, entry.size}});
    suffix_[static_cast<std::size_t>(entry.size_class)].arrivals.emplace_back(
        entry.id, entry.size);
    overflow += entry.size;
  };
  for (int i = boundary; i <= max_size_class(); ++i) {
    Region& r = regions_[static_cast<std::size_t>(i)];
    for (const BufferEntry& entry : r.buffer_entries) evacuate(entry);
    r.ResetBuffer();
  }
  for (const BufferEntry& entry : extra) evacuate(entry);
  return overflow;
}

void SizeClassLayout::PlanArrivals(int boundary,
                                   std::vector<MovePlan>& moves) const {
  // Region::payload_live is maintained incrementally (unchanged by payload
  // moves), so the arrival cursor needs no pass over the object table.
  for (int i = boundary; i <= max_size_class(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    std::uint64_t cursor =
        suffix_[idx].payload_start + regions_[idx].payload_live;
    for (const auto& [id, size] : suffix_[idx].arrivals) {
      moves.push_back(MovePlan{id, Extent{cursor, size}});
      cursor += size;
    }
  }
}

void SizeClassLayout::InstallSuffix(int boundary) {
  for (int i = boundary; i <= max_size_class(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    Region& r = regions_[idx];
    const RegionPlan& plan = suffix_[idx];
    r.payload_start = plan.payload_start;
    r.payload_capacity = plan.payload_capacity;
    r.buffer_capacity = plan.buffer_capacity;
    if (r.payload_holes > 0) CompactPayloadList(r);
    for (const auto& [id, size] : plan.arrivals) {
      ObjectInfo& info = *objects_.Find(id);
      info.position = static_cast<std::uint32_t>(
          AppendPayloadObject(r, id, size));
      info.in_buffer = false;
      info.region = static_cast<std::int16_t>(i);
    }
  }
}

Status SizeClassLayout::CheckInvariants() const {
  std::vector<std::uint64_t> class_volume(volumes_.size(), 0);
  std::uint64_t total = 0;
  std::size_t object_count = 0;
  COSR_RETURN_IF_ERROR(CheckRegions(class_volume, total, object_count));
  return CheckAccounting(class_volume, total, object_count);
}

Status SizeClassLayout::CheckAccounting(
    const std::vector<std::uint64_t>& class_volume, std::uint64_t total,
    std::size_t object_count) const {
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
  // Invariant 2.3: the overflow segment is empty outside flushes.
  if (space_->footprint() > reserved_footprint()) {
    return Status::Internal("object beyond the reserved structure end");
  }
  return Status::Ok();
}

Status SizeClassLayout::CheckRegions(std::vector<std::uint64_t>& class_volume,
                                     std::uint64_t& total,
                                     std::size_t& object_count) const {
  // Regions tile the address space contiguously (Invariant 2.2).
  for (int i = 1; i < max_size_class(); ++i) {
    const Region& r = regions_[static_cast<std::size_t>(i)];
    const Region& next = regions_[static_cast<std::size_t>(i) + 1];
    if (next.payload_start != r.region_end()) {
      return Status::Internal("region " + std::to_string(i + 1) +
                              " does not abut region " + std::to_string(i));
    }
  }
  for (int i = 1; i <= max_size_class(); ++i) {
    const Region& r = regions_[static_cast<std::size_t>(i)];
    // Payload objects: class i only (Invariant 2.3), in bounds, ascending,
    // each filed at its own position; tombstones counted exactly.
    std::uint64_t prev_end = r.payload_start;
    std::uint64_t payload_sum = 0;
    std::size_t holes = 0;
    for (std::size_t k = 0; k < r.payload_objects.size(); ++k) {
      const ObjectId id = r.payload_objects[k];
      if (id == kInvalidObjectId) {
        ++holes;
        continue;
      }
      const ObjectInfo* info = objects_.Find(id);
      if (info == nullptr) {
        return Status::Internal("payload object without bookkeeping");
      }
      if (info->size_class != i || info->in_buffer || info->region != i ||
          info->position != k || info->pending_delete) {
        return Status::Internal("payload object misfiled in region " +
                                std::to_string(i));
      }
      const Extent e = space_->extent_of(id);
      if (SizeClassOf(e.length) != i) {
        return Status::Internal("payload object size/class mismatch");
      }
      if (e.offset < prev_end || e.end() > r.buffer_start()) {
        return Status::Internal("payload object out of segment bounds");
      }
      prev_end = e.end();
      payload_sum += e.length;
      class_volume[static_cast<std::size_t>(i)] += e.length;
      total += e.length;
      ++object_count;
    }
    if (payload_sum != r.payload_live) {
      return Status::Internal("payload_live accounting mismatch in region " +
                              std::to_string(i));
    }
    if (holes != r.payload_holes) {
      return Status::Internal("payload hole count mismatch in region " +
                              std::to_string(i));
    }
    // Buffer entries: classes <= i (Invariant 2.2(4)), packed in order.
    std::uint64_t used = 0;
    COSR_RETURN_IF_ERROR(CheckBufferEntries(r.buffer_entries, r.buffer_start(),
                                            i, i, used, class_volume, total,
                                            object_count));
    if (used != r.buffer_used || used > r.buffer_capacity) {
      return Status::Internal("buffer accounting mismatch in region " +
                              std::to_string(i));
    }
  }
  return Status::Ok();
}

Status SizeClassLayout::CheckBufferEntries(
    const std::vector<BufferEntry>& entries, std::uint64_t start, int region,
    int max_class, std::uint64_t& used,
    std::vector<std::uint64_t>& class_volume, std::uint64_t& total,
    std::size_t& object_count) const {
  std::uint64_t cursor = start;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const BufferEntry& entry = entries[k];
    if (entry.size_class > max_class) {
      return Status::Internal("buffer entry of class " +
                              std::to_string(entry.size_class) +
                              " in region " + std::to_string(region));
    }
    if (entry.live()) {
      const ObjectInfo* info = objects_.Find(entry.id);
      if (info == nullptr) {
        return Status::Internal("buffered object without bookkeeping");
      }
      if (!info->in_buffer || info->region != region || info->position != k ||
          info->size_class != entry.size_class || info->pending_delete) {
        return Status::Internal("buffered object misfiled");
      }
      const Extent e = space_->extent_of(entry.id);
      if (e.offset != cursor || e.length != entry.size) {
        return Status::Internal("buffered object not packed in order");
      }
      class_volume[info->size_class] += entry.size;
      total += entry.size;
      ++object_count;
    }
    cursor += entry.size;
  }
  used = cursor - start;
  return Status::Ok();
}

}  // namespace cosr
