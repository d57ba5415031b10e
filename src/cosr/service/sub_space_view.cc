#include "cosr/service/sub_space_view.h"

#include <algorithm>
#include <string>

#include "cosr/common/check.h"
#include "cosr/storage/checkpoint_manager.h"

namespace cosr {

namespace {

std::string FrozenMessage(const Extent& target) {
  return "write into frozen region " + ToString(target) +
         " (freed since last shard checkpoint)";
}

}  // namespace

SubSpaceView::SubSpaceView(Space* parent, std::uint64_t base,
                           std::uint64_t span, CheckpointManager* manager)
    : parent_(parent), base_(base), span_(span), manager_(manager) {
  COSR_CHECK(parent != nullptr);
  COSR_CHECK_MSG(span > 0, "empty sub-range");
  COSR_CHECK_MSG(base + span > base, "sub-range wraps the address space");
}

void SubSpaceView::AddListener(SpaceListener* listener) {
  parent_->AddListener(listener);
}

void SubSpaceView::RemoveListener(SpaceListener* listener) {
  parent_->RemoveListener(listener);
}

Extent SubSpaceView::ToParent(const Extent& local) const {
  COSR_CHECK_MSG(
      local.offset < span_ && local.length <= span_ - local.offset,
      "extent " + ToString(local) + " escapes sub-range of span " +
          std::to_string(span_));
  return Extent{base_ + local.offset, local.length};
}

Extent SubSpaceView::ToLocal(const Extent& global) const {
  return Extent{global.offset - base_, global.length};
}

bool SubSpaceView::InRange(const Extent& global) const {
  return global.offset >= base_ && global.end() <= base_ + span_;
}

Extent SubSpaceView::LocalExtentOf(ObjectId id) const {
  const Extent global = parent_->extent_of(id);
  COSR_CHECK_MSG(InRange(global),
                 "object " + std::to_string(id) +
                     " lives outside this sub-range (different shard?)");
  return ToLocal(global);
}

bool SubSpaceView::TryPlace(ObjectId id, const Extent& extent) {
  owner_fence_.Assert("SubSpaceView");
  const Extent global = ToParent(extent);
  if (manager_ != nullptr) {
    // Duplicate probe before the frozen CHECK, matching AddressSpace's
    // managed order: a duplicate id returns false even when the requested
    // extent overlaps a frozen region (only a real write may abort).
    Extent existing;
    if (parent_->TryExtentOf(id, &existing)) return false;
    COSR_CHECK_MSG(manager_->IsWritable(extent), FrozenMessage(extent));
  }
  if (!parent_->TryPlace(id, global)) return false;
  live_volume_ += extent.length;
  ++object_count_;
  return true;
}

void SubSpaceView::CheckMoveWritable(const Extent& from,
                                     const Extent& to) const {
  // Durability requires the old copy to survive until the next checkpoint,
  // so the new location must be disjoint from the old one and thawed.
  COSR_CHECK_MSG(!from.Overlaps(to), "overlapping move " + ToString(from) +
                                         " -> " + ToString(to) +
                                         " under checkpoint policy");
  COSR_CHECK_MSG(manager_->IsWritable(to), FrozenMessage(to));
}

void SubSpaceView::Move(ObjectId id, const Extent& to) {
  owner_fence_.Assert("SubSpaceView");
  const Extent from = LocalExtentOf(id);
  if (manager_ != nullptr && from.offset != to.offset) {
    CheckMoveWritable(from, to);
  }
  parent_->Move(id, ToParent(to));
  if (manager_ != nullptr && from.offset != to.offset) {
    manager_->NoteFreed(from);
  }
}

void SubSpaceView::ApplyMoves(const MovePlan* plans, std::size_t count) {
  owner_fence_.Assert("SubSpaceView");
  if (count == 0) return;
  batch_plans_.clear();
  batch_sources_.clear();
  batch_targets_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const Extent from = LocalExtentOf(plans[i].id);
    COSR_CHECK_EQ(from.length, plans[i].to.length);
    if (from.offset == plans[i].to.offset) continue;  // no-op move
    batch_plans_.push_back(MovePlan{plans[i].id, ToParent(plans[i].to)});
    if (manager_ != nullptr) {
      batch_sources_.push_back(from);
      batch_targets_.push_back(plans[i].to);
    }
  }
  if (batch_plans_.empty()) return;
  if (manager_ != nullptr) {
    // The Lemma 3.2 batch rules, scoped to this shard — the same shared
    // sweep AddressSpace's managed path runs, in local coordinates.
    CheckMoveBatchDurability(batch_sources_, batch_targets_, *manager_);
  }
  parent_->ApplyMoves(batch_plans_.data(), batch_plans_.size());
  if (manager_ != nullptr) {
    for (const Extent& source : batch_sources_) manager_->NoteFreed(source);
  }
}

bool SubSpaceView::TryRemove(ObjectId id, Extent* removed) {
  owner_fence_.Assert("SubSpaceView");
  Extent global;
  if (!parent_->TryExtentOf(id, &global) || !InRange(global)) {
    return false;  // absent, or a sibling shard's object (invisible here)
  }
  Extent scratch;
  COSR_CHECK(parent_->TryRemove(id, &scratch));
  *removed = ToLocal(global);
  live_volume_ -= removed->length;
  --object_count_;
  if (manager_ != nullptr) manager_->NoteFreed(*removed);
  return true;
}

bool SubSpaceView::contains(ObjectId id) const {
  Extent global;
  return parent_->TryExtentOf(id, &global) && InRange(global);
}

bool SubSpaceView::TryExtentOf(ObjectId id, Extent* extent) const {
  Extent global;
  if (!parent_->TryExtentOf(id, &global) || !InRange(global)) return false;
  *extent = ToLocal(global);
  return true;
}

Extent SubSpaceView::extent_of(ObjectId id) const {
  return LocalExtentOf(id);
}

std::uint64_t SubSpaceView::footprint() const {
  return footprint_in(0, span_);
}

std::uint64_t SubSpaceView::footprint_in(std::uint64_t lo,
                                         std::uint64_t hi) const {
  if (lo >= span_ || lo >= hi) return 0;
  const std::uint64_t end =
      parent_->footprint_in(base_ + lo, base_ + std::min(hi, span_));
  return end == 0 ? 0 : end - base_;
}

void SubSpaceView::Checkpoint() {
  owner_fence_.Assert("SubSpaceView");
  if (manager_ != nullptr) manager_->Checkpoint();
  // The parent holds no manager in sharded use; this fan-outs OnCheckpoint
  // to the global listeners so meters see every shard's checkpoints.
  parent_->Checkpoint();
}

std::vector<std::pair<ObjectId, Extent>> SubSpaceView::Snapshot() const {
  std::vector<std::pair<ObjectId, Extent>> result;
  ForEachInRange(0, span_, [&](ObjectId id, const Extent& extent) {
    result.emplace_back(id, extent);
  });
  return result;
}

void SubSpaceView::ForEachInRange(std::uint64_t lo, std::uint64_t hi,
                                  const ExtentVisitor& fn) const {
  if (lo >= span_ || lo >= hi) return;
  parent_->ForEachInRange(
      base_ + lo, base_ + std::min(hi, span_),
      [&](ObjectId id, const Extent& extent) { fn(id, ToLocal(extent)); });
}

bool SubSpaceView::SelfCheck() const {
  if (!parent_->SelfCheck()) return false;
  std::uint64_t volume = 0;
  std::size_t count = 0;
  for (const auto& [id, extent] : Snapshot()) {
    if (extent.end() > span_) return false;  // straddles the sub-range edge
    volume += extent.length;
    ++count;
  }
  return volume == live_volume_ && count == object_count_;
}

}  // namespace cosr
