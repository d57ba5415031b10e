#include "cosr/core/cost_oblivious_reallocator.h"

#include <algorithm>

#include "cosr/common/check.h"
#include "cosr/common/math_util.h"
#include "cosr/core/size_class.h"

namespace cosr {

CostObliviousReallocator::CostObliviousReallocator(Space* space,
                                                   Options options)
    : SizeClassLayout(space, options.epsilon) {
  COSR_CHECK_MSG(space_->checkpoint_manager() == nullptr,
                 "amortized variant requires an unconstrained space; use "
                 "CheckpointedReallocator for the durability model");
  spill_upward_ = options.spill_to_higher_buffers;
}

Status CostObliviousReallocator::Insert(ObjectId id, std::uint64_t size) {
  return InsertImpl(id, size, /*already_placed=*/false);
}

Status CostObliviousReallocator::InsertExisting(ObjectId id) {
  if (!space_->contains(id)) {
    return Status::NotFound("object " + std::to_string(id) +
                            " not placed in the address space");
  }
  return InsertImpl(id, space_->extent_of(id).length, /*already_placed=*/true);
}

Status CostObliviousReallocator::InsertImpl(ObjectId id, std::uint64_t size,
                                            bool already_placed) {
  int cls = 0;
  COSR_RETURN_IF_ERROR(AdmitInsert(id, size, &cls));
  if (cls > max_size_class()) {
    CreateNewLargestClass(id, size, cls, already_placed);
    return Status::Ok();
  }
  if (TryBufferInsert(id, size, cls, already_placed)) return Status::Ok();

  Pending pending;
  pending.kind = PendingKind::kInsert;
  pending.id = id;
  pending.size = size;
  pending.size_class = cls;
  pending.already_placed = already_placed;
  Flush(ComputeBoundary(cls), pending);
  return Status::Ok();
}

Status CostObliviousReallocator::Delete(ObjectId id) {
  return DeleteImpl(id, /*extract=*/false, /*target_offset=*/0);
}

Status CostObliviousReallocator::ExtractTo(ObjectId id,
                                           std::uint64_t target_offset) {
  return DeleteImpl(id, /*extract=*/true, target_offset);
}

Status CostObliviousReallocator::DeleteImpl(ObjectId id, bool extract,
                                            std::uint64_t target_offset) {
  ObjectInfo info;
  std::uint64_t size = 0;
  if (!ForgetObject(id, &info, &size)) {
    return Status::NotFound("object " + std::to_string(id));
  }
  if (extract) {
    MoveTracked(id, Extent{target_offset, size});
  } else {
    space_->Remove(id);
  }
  // A payload object leaves a hole and owes a dummy delete record consuming
  // `size` space in the earliest buffer j >= class with room.
  if (info.in_buffer || TryBufferDummy(size, info.size_class)) {
    return Status::Ok();
  }

  Pending pending;
  pending.kind = PendingKind::kDelete;
  pending.size_class = info.size_class;
  Flush(ComputeBoundary(info.size_class), pending);
  return Status::Ok();
}

void CostObliviousReallocator::Flush(int boundary, const Pending& pending) {
  ++flush_count_;
  Notify(FlushEvent::Stage::kBegin, boundary);
  // New segment sizes per Invariant 2.4; volumes_ already reflects the
  // pending request.
  const std::uint64_t old_end = regions_.back().region_end();
  const std::uint64_t new_end = PlanSuffix(boundary);
  const int maxc = max_size_class();

  // Step 1: evacuate live buffered objects to the overflow segment, which
  // starts after both the old and the new suffix; drop dummy records. The
  // whole stage is one ApplyMoves batch (as are steps 2-4): the space
  // validates the batch once and listeners see one coherent event per
  // stage instead of per-move fan-out.
  const std::uint64_t overflow =
      EvacuateBuffers(boundary, std::max(new_end, old_end), {}, move_batch_);
  FlushPlannedMoves();
  NoteTempFootprint(overflow);
  Notify(FlushEvent::Stage::kBuffersEvacuated, boundary);

  // Step 2: compact payloads left (smallest class first), removing holes.
  // Tombstones of deleted payload objects are skipped here and in step 3.
  std::uint64_t pack =
      regions_[static_cast<std::size_t>(boundary)].payload_start;
  for (int i = boundary; i <= maxc; ++i) {
    Region& r = regions_[static_cast<std::size_t>(i)];
    for (ObjectId id : r.payload_objects) {
      if (id == kInvalidObjectId) continue;
      const Extent current = space_->extent_of(id);
      COSR_CHECK_LE(pack, current.offset);
      if (current.offset != pack) PlanMove(id, Extent{pack, current.length});
      pack += current.length;
    }
  }
  FlushPlannedMoves();
  Notify(FlushEvent::Stage::kCompacted, boundary);

  // Step 3: unpack payloads right-to-left to their final positions (each
  // move is no earlier than the current location).
  for (int i = maxc; i >= boundary; --i) {
    Region& r = regions_[static_cast<std::size_t>(i)];
    std::uint64_t cursor =
        suffix_[static_cast<std::size_t>(i)].payload_start + r.payload_live;
    for (auto rit = r.payload_objects.rbegin();
         rit != r.payload_objects.rend(); ++rit) {
      if (*rit == kInvalidObjectId) continue;
      const Extent current = space_->extent_of(*rit);
      cursor -= current.length;
      COSR_CHECK_LE(current.offset, cursor);
      if (current.offset != cursor) {
        PlanMove(*rit, Extent{cursor, current.length});
      }
    }
  }
  FlushPlannedMoves();
  Notify(FlushEvent::Stage::kUnpacked, boundary);

  // Step 4: place overflow objects at the ends of their payload segments
  // and install the new region metadata.
  PlanArrivals(boundary, move_batch_);
  FlushPlannedMoves();
  InstallSuffix(boundary);

  // Finally place the pending insert in the gap Invariant 2.4 reserved at
  // the end of its payload segment. payload_live already counts the
  // overflow arrivals, so no re-walk of the arrival lists is needed.
  if (pending.kind == PendingKind::kInsert) {
    const auto idx = static_cast<std::size_t>(pending.size_class);
    Region& r = regions_[idx];
    PlaceOrMove(pending.id, Extent{r.payload_start + r.payload_live,
                                   pending.size},
                pending.already_placed);
    objects_.Insert(pending.id,
                    Filed(pending.size_class, pending.size_class,
                          /*in_buffer=*/false,
                          AppendPayloadObject(r, pending.id, pending.size)));
  }
  Notify(FlushEvent::Stage::kEnd, boundary);
}

}  // namespace cosr
