#ifndef COSR_TESTS_REFERENCE_REFERENCE_SPACE_H_
#define COSR_TESTS_REFERENCE_REFERENCE_SPACE_H_

// Test-side reference model of AddressSpace: an ordered std::map from
// offset to id plus a hash map from id to extent, with every write checked
// against its two offset-order neighbors and the checkpoint manager's
// frozen regions. ApplyMoves applies a batch as sequential single moves,
// each validated on its own (the strictest reading of the per-move rules),
// where AddressSpace validates once per batch. Differential tests drive
// both through identical traces; exp_address_space benches AddressSpace
// against it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cosr/common/check.h"
#include "cosr/common/types.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/extent.h"
#include "cosr/storage/space.h"

namespace cosr {

class ReferenceSpace final : public Space {
 public:
  explicit ReferenceSpace(CheckpointManager* checkpoints = nullptr)
      : checkpoints_(checkpoints) {}

  void AddListener(SpaceListener* listener) override {
    COSR_CHECK(listener != nullptr);
    listeners_.push_back(listener);
  }

  void RemoveListener(SpaceListener* listener) override {
    listeners_.erase(
        std::remove(listeners_.begin(), listeners_.end(), listener),
        listeners_.end());
  }

  bool TryPlace(ObjectId id, const Extent& extent) override {
    COSR_CHECK_MSG(extent.length > 0,
                   "empty extent for object " + std::to_string(id));
    if (!extents_.try_emplace(id, extent).second) return false;
    // A failed check aborts the process, so the eager try_emplace above
    // never leaks an inconsistent entry.
    CheckWritable(extent, kInvalidObjectId);
    by_offset_.emplace(extent.offset, id);
    footprint_ = std::max(footprint_, extent.end());
    live_volume_ += extent.length;
    for (SpaceListener* l : listeners_) l->OnPlace(id, extent);
    return true;
  }

  void Move(ObjectId id, const Extent& to) override {
    Extent from;
    if (!MoveInternal(id, to, &from)) return;  // no-op move
    for (SpaceListener* l : listeners_) l->OnMove(id, from, to);
  }

  using Space::ApplyMoves;
  void ApplyMoves(const MovePlan* plans, std::size_t count) override {
    batch_records_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      Extent from;
      if (MoveInternal(plans[i].id, plans[i].to, &from)) {
        batch_records_.push_back(MoveRecord{plans[i].id, from, plans[i].to});
      }
    }
    if (batch_records_.empty()) return;
    for (SpaceListener* l : listeners_) {
      l->OnMoves(batch_records_.data(), batch_records_.size());
    }
  }

  bool TryRemove(ObjectId id, Extent* removed) override {
    auto it = extents_.find(id);
    if (it == extents_.end()) return false;
    const Extent extent = it->second;
    by_offset_.erase(extent.offset);
    extents_.erase(it);
    NoteLeft(extent);
    live_volume_ -= extent.length;
    if (checkpoints_ != nullptr) checkpoints_->NoteFreed(extent);
    for (SpaceListener* l : listeners_) l->OnRemove(id, extent);
    *removed = extent;
    return true;
  }

  bool contains(ObjectId id) const override { return extents_.count(id) > 0; }

  Extent extent_of(ObjectId id) const override {
    auto it = extents_.find(id);
    COSR_CHECK_MSG(it != extents_.end(),
                   "extent_of unplaced object " + std::to_string(id));
    return it->second;
  }

  bool TryExtentOf(ObjectId id, Extent* extent) const override {
    auto it = extents_.find(id);
    if (it == extents_.end()) return false;
    *extent = it->second;
    return true;
  }

  std::uint64_t footprint() const override { return footprint_; }

  std::uint64_t footprint_in(std::uint64_t lo,
                             std::uint64_t hi) const override {
    auto it = by_offset_.lower_bound(hi);
    if (it == by_offset_.begin()) return 0;
    --it;
    if (it->first < lo) return 0;
    return extents_.at(it->second).end();
  }

  std::uint64_t live_volume() const override { return live_volume_; }
  std::size_t object_count() const override { return extents_.size(); }

  void Checkpoint() override {
    if (checkpoints_ != nullptr) checkpoints_->Checkpoint();
    const std::uint64_t seq =
        checkpoints_ != nullptr ? checkpoints_->checkpoint_count() : 0;
    for (SpaceListener* l : listeners_) l->OnCheckpoint(seq);
  }

  CheckpointManager* checkpoint_manager() const override {
    return checkpoints_;
  }

  std::vector<std::pair<ObjectId, Extent>> Snapshot() const override {
    std::vector<std::pair<ObjectId, Extent>> result;
    result.reserve(by_offset_.size());
    for (const auto& [offset, id] : by_offset_) {
      result.emplace_back(id, extents_.at(id));
    }
    return result;
  }

  bool SelfCheck() const override {
    if (by_offset_.size() != extents_.size()) return false;
    std::uint64_t volume = 0;
    std::uint64_t prev_end = 0;
    bool first = true;
    for (const auto& [offset, id] : by_offset_) {
      auto it = extents_.find(id);
      if (it == extents_.end()) return false;
      const Extent& e = it->second;
      if (e.offset != offset || e.length == 0) return false;
      if (!first && e.offset < prev_end) return false;  // overlap
      prev_end = e.end();
      first = false;
      volume += e.length;
    }
    return volume == live_volume_ && footprint_ == prev_end;
  }

 private:
  /// CHECKs that `extent` overlaps no object other than `self` and is
  /// writable under the checkpoint policy. Extents are disjoint, so only
  /// the offset-order predecessor and successor can overlap.
  void CheckWritable(const Extent& extent, ObjectId self) const {
    auto it = by_offset_.upper_bound(extent.offset);
    if (it != by_offset_.end() && it->second != self) {
      CheckDisjoint(extent, it->second);
    }
    if (it != by_offset_.begin() && std::prev(it)->second != self) {
      CheckDisjoint(extent, std::prev(it)->second);
    }
    if (checkpoints_ != nullptr) {
      COSR_CHECK_MSG(checkpoints_->IsWritable(extent),
                     "write into frozen region " + ToString(extent) +
                         " (freed since last checkpoint)");
    }
  }

  void CheckDisjoint(const Extent& extent, ObjectId other) const {
    const Extent& placed = extents_.at(other);
    COSR_CHECK_MSG(!extent.Overlaps(placed),
                   "target " + ToString(extent) + " overlaps object " +
                       std::to_string(other) + " at " + ToString(placed));
  }

  bool MoveInternal(ObjectId id, const Extent& to, Extent* from_out) {
    auto it = extents_.find(id);
    COSR_CHECK_MSG(it != extents_.end(),
                   "move of unplaced object " + std::to_string(id));
    const Extent from = it->second;
    COSR_CHECK_EQ(from.length, to.length);
    if (from.offset == to.offset) return false;
    if (checkpoints_ != nullptr) {
      // Durability requires the old copy to survive until the next
      // checkpoint, so the new location must be disjoint from the old one.
      COSR_CHECK_MSG(!from.Overlaps(to),
                     "overlapping move " + ToString(from) + " -> " +
                         ToString(to) + " under checkpoint policy");
    }
    CheckWritable(to, id);
    by_offset_.erase(from.offset);
    it->second = to;
    by_offset_.emplace(to.offset, id);
    if (to.end() >= footprint_) {
      footprint_ = to.end();
    } else {
      NoteLeft(from);
    }
    if (checkpoints_ != nullptr) checkpoints_->NoteFreed(from);
    *from_out = from;
    return true;
  }

  /// Footprint maintenance when `extent` is vacated: distinct objects have
  /// distinct end addresses, so only the rightmost object's departure
  /// forces a recompute.
  void NoteLeft(const Extent& extent) {
    if (extent.end() != footprint_) return;
    footprint_ = by_offset_.empty()
                     ? 0
                     : extents_.at(by_offset_.rbegin()->second).end();
  }

  CheckpointManager* checkpoints_;
  std::vector<SpaceListener*> listeners_;
  std::map<std::uint64_t, ObjectId> by_offset_;
  std::unordered_map<ObjectId, Extent> extents_;
  std::uint64_t footprint_ = 0;
  std::uint64_t live_volume_ = 0;
  std::vector<MoveRecord> batch_records_;  // reused ApplyMoves scratch
};

}  // namespace cosr

#endif  // COSR_TESTS_REFERENCE_REFERENCE_SPACE_H_
