#include "cosr/storage/address_space.h"

#include <algorithm>
#include <memory>
#include <string>

#include "cosr/common/check.h"

namespace cosr {

namespace {

std::string OverlapMessage(const Extent& target, ObjectId other,
                           const Extent& other_extent) {
  return "target " + ToString(target) + " overlaps object " +
         std::to_string(other) + " at " + ToString(other_extent);
}

std::string FrozenMessage(const Extent& target) {
  return "write into frozen region " + ToString(target) +
         " (freed since last checkpoint)";
}

std::string DuplicateSourceMessage(const std::vector<MoveRecord>& records,
                                   std::uint64_t offset) {
  const auto dup =
      std::find_if(records.begin(), records.end(),
                   [&](const MoveRecord& r) { return r.from.offset == offset; });
  return "batch source " + ToString(dup->from) + " of object " +
         std::to_string(dup->id) +
         " overlaps another source of the same batch (duplicate id)";
}

/// Sorts `v` by key(element), cheaply when it is already ascending or
/// descending (the shape of every flush-stage plan).
template <typename T, typename Key>
void SortMostlyMonotone(std::vector<T>& v, Key key) {
  const auto less = [&](const T& a, const T& b) { return key(a) < key(b); };
  if (std::is_sorted(v.begin(), v.end(), less)) return;
  if (std::is_sorted(v.rbegin(), v.rend(), less)) {
    std::reverse(v.begin(), v.end());
    return;
  }
  std::sort(v.begin(), v.end(), less);
}

}  // namespace

void AddressSpace::AddListener(SpaceListener* listener) {
  COSR_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

void AddressSpace::RemoveListener(SpaceListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

// ------------------------------------------------------------- public API

bool AddressSpace::TryPlace(ObjectId id, const Extent& extent) {
  COSR_CHECK_MSG(extent.length > 0,
                 "empty extent for object " + std::to_string(id));
  Extent* slot;
  if (id < dense_size_) {
    slot = &DenseSlot(id);
    if (slot->length != 0) return false;
    if (!overflow_.empty() && overflow_.count(id) > 0) return false;
  } else if (DenseEligible(id)) {
    if (!overflow_.empty() && overflow_.count(id) > 0) return false;
    GrowDense(id + 1);
    slot = &DenseSlot(id);
  } else {
    const auto [it, inserted] = overflow_.try_emplace(id, Extent{});
    if (!inserted) return false;
    slot = &it->second;
  }
  if (checkpoints_ != nullptr) {
    COSR_CHECK_MSG(checkpoints_->IsWritable(extent), FrozenMessage(extent));
  }
  *slot = extent;
  // A failed neighbor check aborts the process, so the eager slot write
  // above never leaks an inconsistent entry.
  IndexInsertChecked(id, extent);
  ++count_;
  live_volume_ += extent.length;
  for (SpaceListener* l : listeners_) l->OnPlace(id, extent);
  return true;
}

void AddressSpace::Move(ObjectId id, const Extent& to) {
  Extent* slot = SlotFor(id);
  COSR_CHECK_MSG(slot != nullptr,
                 "move of unplaced object " + std::to_string(id));
  const Extent from = *slot;
  COSR_CHECK_EQ(from.length, to.length);
  if (from.offset == to.offset) return;  // no-op move
  if (checkpoints_ != nullptr) {
    // Durability requires the old copy to survive until the next
    // checkpoint, so the new location must be disjoint from the old one.
    COSR_CHECK_MSG(!from.Overlaps(to),
                   "overlapping move " + ToString(from) + " -> " +
                       ToString(to) + " under checkpoint policy");
    COSR_CHECK_MSG(checkpoints_->IsWritable(to), FrozenMessage(to));
  }
  COSR_CHECK(index_.Erase(from.offset));
  *slot = to;
  IndexInsertChecked(id, to);
  if (checkpoints_ != nullptr) checkpoints_->NoteFreed(from);
  for (SpaceListener* l : listeners_) l->OnMove(id, from, to);
}

void AddressSpace::ApplyMoves(const MovePlan* plans, std::size_t count) {
  if (count == 0) return;
  batch_records_.clear();
  batch_erase_.clear();
  batch_inserts_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const MovePlan& plan = plans[i];
    const Extent* slot = SlotFor(plan.id);
    COSR_CHECK_MSG(slot != nullptr,
                   "move of unplaced object " + std::to_string(plan.id));
    COSR_CHECK_EQ(slot->length, plan.to.length);
    if (slot->offset == plan.to.offset) continue;  // no-op move
    batch_records_.push_back(MoveRecord{plan.id, *slot, plan.to});
    batch_erase_.push_back(slot->offset);
    batch_inserts_.push_back(OffsetIndex::Entry{plan.to.offset, plan.id});
  }
  if (batch_records_.empty()) return;
  if (checkpoints_ != nullptr) {
    // The Lemma 3.2 nonoverlap property, checked with one sorted sweep per
    // batch by the shared CheckMoveBatchDurability.
    batch_sources_.clear();
    batch_targets_.clear();
    for (const MoveRecord& r : batch_records_) {
      batch_sources_.push_back(r.from);
      batch_targets_.push_back(r.to);
    }
    CheckMoveBatchDurability(batch_sources_, batch_targets_, *checkpoints_);
  }

  // One ordered index pass for the whole batch. Every source leaves the
  // index before any target enters it, so a batch may reuse space its own
  // members free (the memmove model). Flush stages emit monotone plans, so
  // the sorts are usually a check or a reversal.
  SortMostlyMonotone(batch_erase_, [](std::uint64_t offset) { return offset; });
  SortMostlyMonotone(batch_inserts_,
                     [](const OffsetIndex::Entry& e) { return e.offset; });
  // Distinct placed objects never share an offset: a repeated source is
  // one id moved twice.
  const auto repeat =
      std::adjacent_find(batch_erase_.begin(), batch_erase_.end());
  COSR_CHECK_MSG(repeat == batch_erase_.end(),
                 DuplicateSourceMessage(batch_records_, *repeat));
  for (const MoveRecord& r : batch_records_) {
    *SlotFor(r.id) = r.to;
  }
  COSR_CHECK(index_.ApplyBatch(batch_erase_.data(), batch_erase_.size(),
                               batch_inserts_.data(), batch_inserts_.size()));
  // Each target against its final neighbors. A neighbor that is the
  // previous target was already checked as that target's successor, so
  // adjacent pairs are checked once and the whole final layout is
  // disjoint.
  const OffsetIndex::Entry* previous = nullptr;
  index_.ForEachNeighborhood(
      batch_inserts_.data(), batch_inserts_.size(),
      [&](const OffsetIndex::Entry* pred, const OffsetIndex::Entry& entry,
          const OffsetIndex::Entry* succ) {
        const Extent& target = *SlotFor(entry.id);
        if (pred != nullptr && pred != previous) {
          const Extent& left = *SlotFor(pred->id);
          COSR_CHECK_MSG(left.end() <= target.offset,
                         OverlapMessage(target, pred->id, left));
        }
        if (succ != nullptr) {
          COSR_CHECK_MSG(
              target.end() <= succ->offset,
              OverlapMessage(target, succ->id, *SlotFor(succ->id)));
        }
        previous = &entry;
      });
  if (checkpoints_ != nullptr) {
    for (const MoveRecord& r : batch_records_) checkpoints_->NoteFreed(r.from);
  }
  for (SpaceListener* l : listeners_) {
    l->OnMoves(batch_records_.data(), batch_records_.size());
  }
}

bool AddressSpace::TryRemove(ObjectId id, Extent* removed) {
  Extent extent;
  Extent* dense = id < dense_size_ ? &DenseSlot(id) : nullptr;
  if (dense != nullptr && dense->length != 0) {
    extent = *dense;
    *dense = Extent{};
  } else {
    if (overflow_.empty()) return false;
    const auto it = overflow_.find(id);
    if (it == overflow_.end()) return false;
    extent = it->second;
    overflow_.erase(it);
  }
  COSR_CHECK(index_.Erase(extent.offset));
  --count_;
  *removed = extent;
  live_volume_ -= extent.length;
  if (checkpoints_ != nullptr) checkpoints_->NoteFreed(extent);
  for (SpaceListener* l : listeners_) l->OnRemove(id, extent);
  return true;
}

Extent AddressSpace::extent_of(ObjectId id) const {
  const Extent* slot = SlotFor(id);
  COSR_CHECK_MSG(slot != nullptr,
                 "extent_of unplaced object " + std::to_string(id));
  return *slot;
}

bool AddressSpace::TryExtentOf(ObjectId id, Extent* extent) const {
  const Extent* slot = SlotFor(id);
  if (slot == nullptr) return false;
  *extent = *slot;
  return true;
}

std::uint64_t AddressSpace::footprint() const {
  // Extents are disjoint, so the rightmost-by-offset object also has the
  // largest end address; the index tail is O(1).
  const OffsetIndex::Entry* last = index_.Last();
  return last == nullptr ? 0 : SlotFor(last->id)->end();
}

std::uint64_t AddressSpace::footprint_in(std::uint64_t lo,
                                         std::uint64_t hi) const {
  // Extents are disjoint, so among objects starting below `hi` the one
  // with the largest offset also has the largest end: one predecessor
  // lookup answers the query. A predecessor starting below `lo` means the
  // range itself is empty.
  const OffsetIndex::Entry* pred = index_.LastBefore(hi);
  if (pred == nullptr || pred->offset < lo) return 0;
  return SlotFor(pred->id)->end();
}

void AddressSpace::Checkpoint() {
  if (checkpoints_ != nullptr) checkpoints_->Checkpoint();
  const std::uint64_t seq =
      checkpoints_ != nullptr ? checkpoints_->checkpoint_count() : 0;
  for (SpaceListener* l : listeners_) l->OnCheckpoint(seq);
}

std::vector<std::pair<ObjectId, Extent>> AddressSpace::Snapshot() const {
  std::vector<std::pair<ObjectId, Extent>> result;
  result.reserve(index_.size());
  index_.ForEach([&](const OffsetIndex::Entry& entry) {
    result.emplace_back(entry.id, *SlotFor(entry.id));
  });
  return result;
}

void AddressSpace::ForEachInRange(std::uint64_t lo, std::uint64_t hi,
                                  const ExtentVisitor& fn) const {
  index_.ForEachInRange(lo, hi, [&](const OffsetIndex::Entry& entry) {
    fn(entry.id, *SlotFor(entry.id));
  });
}

bool AddressSpace::SelfCheck() const {
  if (!index_.SelfCheck() || index_.size() != count_) return false;
  std::size_t dense = 0;
  for (ObjectId id = 0; id < dense_size_; ++id) {
    if (DenseSlot(id).length != 0) ++dense;
  }
  if (dense + overflow_.size() != count_) return false;
  std::uint64_t volume = 0;
  std::uint64_t prev_end = 0;
  bool ok = true;
  bool first = true;
  index_.ForEach([&](const OffsetIndex::Entry& entry) {
    const Extent* slot = SlotFor(entry.id);
    if (slot == nullptr || slot->offset != entry.offset ||
        slot->length == 0) {
      ok = false;
      return;
    }
    if (!first && slot->offset < prev_end) ok = false;  // overlap
    prev_end = slot->end();
    first = false;
    volume += slot->length;
  });
  return ok && volume == live_volume_;
}

// ---------------------------------------------------------------- private

Extent* AddressSpace::SlotFor(ObjectId id) {
  if (id < dense_size_) {
    Extent& slot = DenseSlot(id);
    if (slot.length != 0) return &slot;
  }
  if (!overflow_.empty()) {
    auto it = overflow_.find(id);
    if (it != overflow_.end()) return &it->second;
  }
  return nullptr;
}

const Extent* AddressSpace::SlotFor(ObjectId id) const {
  return const_cast<AddressSpace*>(this)->SlotFor(id);
}

void AddressSpace::GrowDense(std::size_t size) {
  while (dense_size_ < size) {
    const std::size_t in_chunk = dense_size_ & (kSlotsPerChunk - 1);
    if (in_chunk == 0) slot_chunks_.Add();
    const std::size_t n =
        std::min(kSlotsPerChunk - in_chunk, size - dense_size_);
    Extent* first = slot_chunks_.back() + in_chunk;
    std::uninitialized_fill(first, first + n, Extent{});
    dense_size_ += n;
  }
}

void AddressSpace::IndexInsertChecked(ObjectId id, const Extent& extent) {
  const OffsetIndex::Neighbors n = index_.Insert(extent.offset, id);
  if (n.has_succ) {
    COSR_CHECK_MSG(extent.end() <= n.succ.offset,
                   OverlapMessage(extent, n.succ.id, *SlotFor(n.succ.id)));
  }
  if (n.has_pred) {
    const Extent& pred = *SlotFor(n.pred.id);
    COSR_CHECK_MSG(pred.end() <= extent.offset,
                   OverlapMessage(extent, n.pred.id, pred));
  }
}

}  // namespace cosr
