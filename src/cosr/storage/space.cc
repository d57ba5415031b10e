#include "cosr/storage/space.h"

#include <string>

#include "cosr/common/check.h"

namespace cosr {

void SpaceListener::OnPlace(ObjectId, const Extent&) {}
void SpaceListener::OnMove(ObjectId, const Extent&, const Extent&) {}
void SpaceListener::OnMoves(const MoveRecord* records, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    OnMove(records[i].id, records[i].from, records[i].to);
  }
}
void SpaceListener::OnRemove(ObjectId, const Extent&) {}
void SpaceListener::OnCheckpoint(std::uint64_t) {}

void Space::Place(ObjectId id, const Extent& extent) {
  COSR_CHECK_MSG(TryPlace(id, extent),
                 "object " + std::to_string(id) + " already placed");
}

void Space::ForEachInRange(std::uint64_t lo, std::uint64_t hi,
                           const ExtentVisitor& fn) const {
  for (const auto& [id, extent] : Snapshot()) {
    if (extent.offset >= lo && extent.offset < hi) fn(id, extent);
  }
}

void Space::Remove(ObjectId id) {
  Extent extent;
  COSR_CHECK_MSG(TryRemove(id, &extent),
                 "remove of unplaced object " + std::to_string(id));
}

}  // namespace cosr
