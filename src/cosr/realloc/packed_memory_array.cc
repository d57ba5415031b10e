#include "cosr/realloc/packed_memory_array.h"

#include <algorithm>

#include "cosr/common/check.h"
#include "cosr/common/math_util.h"

namespace cosr {
namespace {

/// Root density bounds; the limits run from kTauRoot to 1 and from
/// kRhoRoot to kRhoRoot / 2 at the leaves.
constexpr double kTauRoot = 0.5;
constexpr double kRhoRoot = 0.25;

}  // namespace

PackedMemoryArray::PackedMemoryArray(Space* space, Options options)
    : space_(space), options_(options) {
  COSR_CHECK(space_ != nullptr);
  COSR_CHECK(options_.slot_size >= 1);
}

int PackedMemoryArray::TreeHeight() const {
  if (capacity_ <= leaf_size_) return 0;
  return FloorLog2(capacity_ / leaf_size_);
}

double PackedMemoryArray::MaxDensity(int depth) const {
  const int h = std::max(TreeHeight(), 1);
  const double t = static_cast<double>(depth) / static_cast<double>(h);
  return kTauRoot + (1.0 - kTauRoot) * t;
}

double PackedMemoryArray::MinDensity(int depth) const {
  const int h = std::max(TreeHeight(), 1);
  const double t = static_cast<double>(depth) / static_cast<double>(h);
  return kRhoRoot - (kRhoRoot / 2.0) * t;
}

std::vector<ObjectId> PackedMemoryArray::Collect(std::uint64_t start,
                                                 std::uint64_t size) const {
  std::vector<ObjectId> ids;
  for (std::uint64_t s = start; s < start + size; ++s) {
    if (cells_[s] != kInvalidObjectId) ids.push_back(cells_[s]);
  }
  return ids;
}

void PackedMemoryArray::Spread(std::uint64_t window_start,
                               std::uint64_t window_size,
                               const std::vector<ObjectId>& ids) {
  COSR_CHECK_LE(ids.size(), window_size);
  ++rebalances_;
  // Pass 1: pack every already-placed id to the left edge of the window,
  // in order (targets never overlap sources: uniform slots, leftward, in
  // address order).
  std::uint64_t pack = window_start;
  for (std::uint64_t s = window_start; s < window_start + window_size; ++s) {
    const ObjectId id = cells_[s];
    if (id == kInvalidObjectId) continue;
    if (s != pack) {
      space_->Move(id, Extent{SlotOffset(pack), options_.slot_size});
    }
    cells_[s] = kInvalidObjectId;
    cells_[pack] = id;
    ++pack;
  }
  // Pass 2: spread evenly, right to left (targets at or beyond the packed
  // positions). Ids not yet placed (a pending insert) are placed fresh.
  std::vector<std::uint64_t> targets(ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    targets[k] = window_start + (k * window_size) / ids.size();
  }
  // Clear bookkeeping for the packed prefix before rewriting.
  for (std::uint64_t s = window_start; s < pack; ++s) {
    cells_[s] = kInvalidObjectId;
  }
  for (std::size_t k = ids.size(); k-- > 0;) {
    const ObjectId id = ids[k];
    const std::uint64_t slot = targets[k];
    if (space_->contains(id)) {
      if (space_->extent_of(id).offset != SlotOffset(slot)) {
        space_->Move(id, Extent{SlotOffset(slot), options_.slot_size});
      }
    } else {
      space_->Place(id, Extent{SlotOffset(slot), options_.slot_size});
    }
    cells_[slot] = id;
    slot_of_[id] = slot;
  }
}

void PackedMemoryArray::Resize(std::uint64_t new_capacity) {
  ++resizes_;
  const std::vector<ObjectId> ids = Collect(0, capacity_);
  // Pack everything to the front of the (old) table so shrinking is safe,
  // then respread over the new geometry.
  std::uint64_t pack = 0;
  for (std::uint64_t s = 0; s < capacity_; ++s) {
    const ObjectId id = cells_[s];
    if (id == kInvalidObjectId) continue;
    if (s != pack) {
      space_->Move(id, Extent{SlotOffset(pack), options_.slot_size});
    }
    ++pack;
  }
  capacity_ = new_capacity;
  leaf_size_ = std::min(
      capacity_, NextPowerOfTwo(static_cast<std::uint64_t>(
                     FloorLog2(std::max<std::uint64_t>(capacity_, 2)) + 1)));
  cells_.assign(capacity_, kInvalidObjectId);
  // Rebuild bookkeeping for the packed prefix, then spread.
  for (std::size_t k = 0; k < ids.size(); ++k) {
    cells_[k] = ids[k];
  }
  slot_of_.clear();
  for (std::size_t k = 0; k < ids.size(); ++k) slot_of_[ids[k]] = k;
  if (!ids.empty()) Spread(0, capacity_, ids);
}

void PackedMemoryArray::RebalanceAfter(std::uint64_t slot) {
  // The classical lazy scheme: scan from the leaf upward; if the leaf is
  // within its thresholds, stop. Otherwise find the nearest ancestor that
  // is within ITS thresholds and spread it evenly — after which its whole
  // subtree is legal, because bounds loosen toward the leaves. Root
  // violations resize the table.
  std::uint64_t window = leaf_size_;
  int depth = TreeHeight();
  bool deeper_violated = false;
  for (;;) {
    const std::uint64_t start = (slot / window) * window;
    const std::uint64_t live = Collect(start, window).size();
    const double density =
        static_cast<double>(live) / static_cast<double>(window);
    const bool too_full = density > MaxDensity(depth);
    const bool too_empty = density < MinDensity(depth);
    if (!too_full && !too_empty) {
      if (deeper_violated) Spread(start, window, Collect(start, window));
      return;
    }
    if (window == capacity_) {
      if (too_full) {
        Resize(capacity_ * 2);
      } else if (capacity_ > leaf_size_) {
        Resize(std::max(leaf_size_, capacity_ / 2));
      } else if (deeper_violated) {
        Spread(0, capacity_, Collect(0, capacity_));
      }
      return;
    }
    deeper_violated = true;
    window *= 2;
    --depth;
  }
}

Status PackedMemoryArray::Insert(ObjectId id, std::uint64_t size) {
  if (size != options_.slot_size) {
    return Status::InvalidArgument(
        "sparse tables hold uniform objects; expected size " +
        std::to_string(options_.slot_size));
  }
  if (slot_of_.count(id) > 0) {
    return Status::AlreadyExists("object " + std::to_string(id));
  }
  if (capacity_ == 0) {
    capacity_ = 4;
    leaf_size_ = 4;
    cells_.assign(capacity_, kInvalidObjectId);
  }

  // The leaf that should receive the id: the successor's leaf, else the
  // predecessor's, else the first.
  auto succ = slot_of_.upper_bound(id);
  std::uint64_t anchor_slot = 0;
  if (succ != slot_of_.end()) {
    anchor_slot = succ->second;
  } else if (!slot_of_.empty()) {
    anchor_slot = std::prev(slot_of_.end())->second;
  }
  std::uint64_t window = leaf_size_;
  int depth = TreeHeight();
  // Find the smallest window that can legally absorb one more object.
  for (;;) {
    const std::uint64_t start = (anchor_slot / window) * window;
    const std::uint64_t live = Collect(start, window).size();
    const double density =
        static_cast<double>(live + 1) / static_cast<double>(window);
    if (density <= MaxDensity(depth)) {
      std::vector<ObjectId> ids = Collect(start, window);
      auto pos = std::lower_bound(ids.begin(), ids.end(), id);
      ids.insert(pos, id);
      Spread(start, window, ids);
      ++count_;
      return Status::Ok();
    }
    if (window == capacity_) {
      // Full table: grow, then place into the fresh geometry.
      Resize(capacity_ * 2);
      // Resize respread the existing ids; now insert via the normal path
      // (guaranteed to fit: density halved).
      return Insert(id, size);
    }
    window *= 2;
    --depth;
  }
}

Status PackedMemoryArray::Delete(ObjectId id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  const std::uint64_t slot = it->second;
  space_->Remove(id);
  cells_[slot] = kInvalidObjectId;
  slot_of_.erase(it);
  --count_;
  if (count_ == 0) {
    capacity_ = 0;
    leaf_size_ = 0;
    cells_.clear();
    return Status::Ok();
  }
  RebalanceAfter(slot);
  return Status::Ok();
}

bool PackedMemoryArray::SelfCheck() const {
  if (slot_of_.size() != count_ || space_->object_count() != count_) {
    return false;
  }
  ObjectId previous = 0;
  bool first = true;
  std::uint64_t live = 0;
  for (std::uint64_t s = 0; s < capacity_; ++s) {
    const ObjectId id = cells_[s];
    if (id == kInvalidObjectId) continue;
    ++live;
    if (!first && id <= previous) return false;  // order violated
    previous = id;
    first = false;
    auto it = slot_of_.find(id);
    if (it == slot_of_.end() || it->second != s) return false;
    if (!space_->contains(id) ||
        space_->extent_of(id).offset != SlotOffset(s)) {
      return false;
    }
  }
  return live == count_;
}

}  // namespace cosr
