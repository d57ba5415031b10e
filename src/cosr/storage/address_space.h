#ifndef COSR_STORAGE_ADDRESS_SPACE_H_
#define COSR_STORAGE_ADDRESS_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cosr/common/huge_pages.h"
#include "cosr/common/types.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/extent.h"
#include "cosr/storage/offset_index.h"
#include "cosr/storage/space.h"

namespace cosr {

/// The paper's "arbitrarily large array": a flat address space holding
/// disjoint object extents. The space CHECK-enforces the physical-layout
/// invariants every reallocator must respect:
///   * extents of distinct objects never overlap;
///   * with a CheckpointManager attached, writes never touch regions freed
///     since the last checkpoint, and moves are nonoverlapping (the
///     durability rules of Section 3.1);
///   * without a manager, a move may overlap its own source (memmove
///     semantics), matching the unconstrained model of Section 2.
///
/// Storage is a dense ObjectId-indexed slot table (ids are sequential
/// uint64s from the workload layer; sparse ids spill into a small overflow
/// map) in fixed 2 MiB chunks behind a flat chunk-pointer array, plus a
/// paged sorted-vector offset index (OffsetIndex) on its own page pool:
/// O(1) id lookups, cache-friendly neighbor checks, O(1) footprint, and a
/// batched ApplyMoves that validates once per batch and re-indexes the
/// batch in one ordered pass over the touched pages
/// (OffsetIndex::ApplyBatch): O(P * page + m log m) for m moves touching P
/// pages, where single moves would cost O(m * page) in erase and insert
/// memmoves. Slot chunks and index pages past the first 4 MiB of each get
/// huge-page advice (cosr/common/huge_pages.h). Differential fuzzing
/// (tests/address_space_engine_test.cc) drives it against the test-side
/// map model tests/reference/reference_space.h, whose ApplyMoves validates
/// every move sequentially.
///
/// Thread-compatible: no internal locking — all access (including const
/// reads, which race with a concurrent mutator's index edits) must be
/// externally serialized. The concurrent service facade runs K spaces on K
/// threads by giving each shard a private instance, never by sharing one.
class AddressSpace final : public Space {
 public:
  explicit AddressSpace(CheckpointManager* checkpoints = nullptr)
      : checkpoints_(checkpoints) {}
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  void AddListener(SpaceListener* listener) override;
  void RemoveListener(SpaceListener* listener) override;

  /// Like Place, but returns false (touching nothing) when `id` is already
  /// placed. Single lookup: lets allocator hot paths skip a separate
  /// contains() check and build error strings only on the failure branch.
  bool TryPlace(ObjectId id, const Extent& extent) override;

  /// Moves an existing object to `to` (length must match).
  void Move(ObjectId id, const Extent& to) override;

  /// Applies a batch of moves — the flush-storm fast path. Ids must be
  /// distinct; no-op plans (target == current position) are skipped.
  /// Listeners receive a single OnMoves with the applied records.
  ///
  /// The offset index takes the batch in one pass: sources and targets are
  /// sorted by offset (a check or a reversal for monotone flush plans),
  /// every source is erased and every target inserted page by page, and
  /// listeners still see the records in plan order.
  ///
  /// Validation is batch-level: the *final* layout must be disjoint (each
  /// reindexed target is checked against its final predecessor and
  /// successor, across page boundaries too), a repeated id aborts, and
  /// under a checkpoint manager every target must additionally be disjoint
  /// from every batch source and from regions frozen before the batch — the
  /// Lemma 3.2 nonoverlap property, checked with one sorted sweep per batch
  /// instead of per-move probes. Without a manager, transient ordering
  /// hazards between batch members (a target crossing a not-yet-vacated
  /// source) are the caller's responsibility, exactly like a
  /// self-overlapping memmove.
  using Space::ApplyMoves;
  void ApplyMoves(const MovePlan* plans, std::size_t count) override;

  /// Like Remove, but returns false when `id` is absent; on success stores
  /// the freed extent in *removed.
  bool TryRemove(ObjectId id, Extent* removed) override;

  bool contains(ObjectId id) const override { return SlotFor(id) != nullptr; }
  Extent extent_of(ObjectId id) const override;
  bool TryExtentOf(ObjectId id, Extent* extent) const override;

  /// Largest end address of any placed object (the literal "footprint" of
  /// the paper). O(1): reads the offset index tail.
  std::uint64_t footprint() const override;

  /// Largest end address among objects starting in [lo, hi) (the
  /// sub-range-scoped footprint query of Space). O(log n).
  std::uint64_t footprint_in(std::uint64_t lo,
                             std::uint64_t hi) const override;

  /// Sum of the lengths of all placed objects.
  std::uint64_t live_volume() const override { return live_volume_; }
  std::size_t object_count() const override { return count_; }

  /// Runs a checkpoint: releases frozen regions (if a manager is attached)
  /// and notifies listeners.
  void Checkpoint() override;

  CheckpointManager* checkpoint_manager() const override {
    return checkpoints_;
  }

  /// All (id, extent) pairs in ascending offset order.
  std::vector<std::pair<ObjectId, Extent>> Snapshot() const override;
  void ForEachInRange(std::uint64_t lo, std::uint64_t hi,
                      const ExtentVisitor& fn) const override;

  /// Verifies internal consistency (disjointness, index agreement). Returns
  /// true on success; used by tests as a belt-and-suspenders check.
  bool SelfCheck() const override;

 private:
  /// Dense ids per slot chunk: 2^17 16-byte Extents, one 2 MiB huge page.
  static constexpr int kSlotChunkShift = 17;
  static constexpr std::size_t kSlotsPerChunk = std::size_t{1}
                                                << kSlotChunkShift;
  static_assert(kSlotsPerChunk == ChunkList<Extent>::kPerChunk);
  static constexpr std::size_t kDenseFloor = 4096;

  /// The dense slot of `id`, which must be below dense_size_: one load
  /// from the chunk-pointer array, then the slot itself.
  Extent& DenseSlot(ObjectId id) const {
    return slot_chunks_[id >> kSlotChunkShift][id & (kSlotsPerChunk - 1)];
  }

  /// Mutable slot of a placed object, or nullptr. Dense ids resolve with
  /// one DenseSlot probe; the overflow map is consulted only when
  /// non-empty.
  Extent* SlotFor(ObjectId id);
  const Extent* SlotFor(ObjectId id) const;

  /// Whether a fresh id may live in the dense table (growing it at most
  /// geometrically); everything else goes to the overflow map.
  bool DenseEligible(ObjectId id) const {
    return id < dense_size_ + dense_size_ / 2 + kDenseFloor;
  }

  /// Extends the dense table to `size` empty slots, adding chunks as
  /// needed. Existing slots never move.
  void GrowDense(std::size_t size);

  /// Inserts into the offset index and CHECKs the new entry against its
  /// neighbors — with pairwise-disjoint existing entries, only the direct
  /// neighbors can overlap, so this enforces full disjointness inductively.
  void IndexInsertChecked(ObjectId id, const Extent& extent);

  CheckpointManager* checkpoints_;
  std::vector<SpaceListener*> listeners_;
  std::uint64_t live_volume_ = 0;

  // The dense table: ids [0, dense_size_) in fixed kSlotsPerChunk chunks
  // behind a flat pointer array, so growth never relocates or copies a
  // slot. Only the slots below dense_size_ are ever written, so the unused
  // tail of the last chunk stays unbacked. A slot with length 0 is empty.
  ChunkList<Extent> slot_chunks_;
  std::size_t dense_size_ = 0;
  std::unordered_map<ObjectId, Extent> overflow_;
  OffsetIndex index_;
  std::size_t count_ = 0;

  // Reused ApplyMoves scratch (avoids per-batch allocation in move storms):
  // the applied records in plan order, the durability sweep's extents
  // (managed spaces only), and the index pass's sorted sources and targets.
  std::vector<MoveRecord> batch_records_;
  std::vector<Extent> batch_sources_;
  std::vector<Extent> batch_targets_;
  std::vector<std::uint64_t> batch_erase_;
  std::vector<OffsetIndex::Entry> batch_inserts_;
};

}  // namespace cosr

#endif  // COSR_STORAGE_ADDRESS_SPACE_H_
