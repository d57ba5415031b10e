#ifndef COSR_CORE_SIZE_CLASS_LAYOUT_H_
#define COSR_CORE_SIZE_CLASS_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cosr/common/check.h"
#include "cosr/core/flush_listener.h"
#include "cosr/core/layout.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/storage/space.h"

namespace cosr {

/// Shared machinery of the three cost-oblivious variants (Sections 2, 3.2,
/// 3.3): the size-class region layout of Invariants 2.2-2.4, insert
/// admission and delete bookkeeping, buffer placement, dummy delete
/// records, boundary-class computation, the flush building blocks (suffix
/// sizing, buffer evacuation, arrival placement and install), and the
/// layout invariant checker. Subclasses implement the request handling and
/// the order in which a flush moves payloads under their model.
class SizeClassLayout : public Reallocator {
 public:
  /// Largest size class with a region (0 when empty).
  int max_size_class() const { return static_cast<int>(regions_.size()) - 1; }
  const Region& region(int size_class) const;
  std::uint64_t volume_in_class(int size_class) const;
  bool contains(ObjectId id) const { return objects_.Find(id) != nullptr; }

  std::uint64_t reserved_footprint() const override {
    return regions_.back().region_end();
  }
  std::uint64_t volume() const override { return total_volume_; }

  std::uint64_t flush_count() const { return flush_count_; }
  std::uint64_t move_count() const { return move_count_; }
  /// Total volume physically moved so far (sum of moved objects' sizes).
  std::uint64_t moved_volume() const { return moved_volume_; }
  /// High-water mark of the physical footprint, including transient
  /// overflow/working space used during flushes.
  std::uint64_t max_temp_footprint() const { return max_temp_footprint_; }
  double epsilon() const { return epsilon_; }
  /// Running maximum object size (the paper's ∆).
  std::uint64_t delta() const { return delta_; }

  void set_flush_listener(FlushListener* listener) {
    flush_listener_ = listener;
  }

  /// Verifies Invariants 2.2-2.4 plus bookkeeping consistency against the
  /// address space. Returns a non-OK status describing the first violation.
  /// Valid between requests (not mid-flush).
  virtual Status CheckInvariants() const;

 protected:
  /// The filing of an object at `position` of `region`'s payload list or
  /// buffer entries, with no pending delete.
  static ObjectInfo Filed(int region, int size_class, bool in_buffer,
                          std::size_t position) {
    COSR_CHECK_LT(position, std::size_t{1} << 32);
    return ObjectInfo{static_cast<std::uint32_t>(position),
                      static_cast<std::int16_t>(region),
                      static_cast<std::uint8_t>(size_class), in_buffer, 0};
  }

  /// The flushed suffix's new layout for one class (Invariant 2.4):
  /// payload capacity V(i), buffer capacity floor(eps * V(i)), and the
  /// evacuated buffered objects (id, size) that land at the payload end.
  struct RegionPlan {
    std::uint64_t payload_start = 0;
    std::uint64_t payload_capacity = 0;
    std::uint64_t buffer_capacity = 0;
    std::vector<std::pair<ObjectId, std::uint64_t>> arrivals;
  };

  SizeClassLayout(Space* space, double epsilon);

  /// Insert admission: rejects a zero size or a known id, raises ∆, and
  /// counts the object into its class and total volume. Sets `*cls` to the
  /// object's size class.
  Status AdmitInsert(ObjectId id, std::uint64_t size, int* cls);

  /// Delete bookkeeping: drops `id` from the object table and from its
  /// class and total volume, then either turns its buffer entry into a
  /// dummy delete record (its space stays consumed until the next flush) or
  /// tombstones it in its payload segment. Returns false for an unknown id;
  /// otherwise sets `*info` and `*size` (read from the still-placed
  /// extent). `info->in_buffer == false` means the caller still owes a
  /// dummy record. The space is left untouched.
  bool ForgetObject(ObjectId id, ObjectInfo* info, std::uint64_t* size);

  /// The buffer entry list that an ObjectInfo::region index names.
  virtual std::vector<BufferEntry>& BufferEntries(int region) {
    return regions_[static_cast<std::size_t>(region)].buffer_entries;
  }

  /// Places (or, for adopted objects, moves) `id` into the earliest buffer
  /// j >= cls with room. Returns false when no buffer has room.
  bool TryBufferInsert(ObjectId id, std::uint64_t size, int cls,
                       bool already_placed);

  /// Adds a dummy delete record of the given size/class to the earliest
  /// buffer j >= cls with room. Returns false when no buffer has room.
  bool TryBufferDummy(std::uint64_t size, int cls);

  /// Largest buffer index an update of class `cls` may use. The paper's
  /// rule spills to any j >= cls; the ablation restricts to j == cls
  /// (see CostObliviousReallocator::Options::spill_to_higher_buffers).
  int BufferSearchLimit(int cls) const {
    return spill_upward_ ? max_size_class() : cls;
  }

  /// Appends empty regions at the structure end until class `cls` has one.
  void AddRegionsThrough(int cls);

  /// Creates regions up to `cls` for a new largest class and places the
  /// object in its fresh payload segment (the +w+eps'w rule of Section 2).
  /// The object must already be admitted.
  void CreateNewLargestClass(ObjectId id, std::uint64_t size, int cls,
                             bool already_placed);

  /// The maximum b such that all buffered entries in regions >= b and the
  /// triggering request belong to classes >= b.
  int ComputeBoundary(int trigger_class) const;

  // Flush building blocks shared by every variant. A flush of regions
  // >= boundary sizes the new suffix (PlanSuffix), evacuates the live
  // buffered objects to an overflow run (EvacuateBuffers), moves payloads
  // to their new starts (variant-specific), lands the evacuated objects at
  // their payload ends (PlanArrivals) and installs the new layout
  // (InstallSuffix).

  /// Lays out regions >= boundary from the current class volumes, starting
  /// at the boundary region's start, into suffix_. Returns the new end.
  std::uint64_t PlanSuffix(int boundary);
  /// Appends to `moves` a move of every live entry of the buffers >=
  /// boundary, then of `extra`, to consecutive offsets from `overflow`,
  /// and files each as an arrival of its class; empties those buffers.
  /// Returns the overflow end.
  std::uint64_t EvacuateBuffers(int boundary, std::uint64_t overflow,
                                const std::vector<BufferEntry>& extra,
                                std::vector<MovePlan>& moves);
  /// Appends to `moves` each arrival's move to the end of its class's
  /// packed payload at the planned start.
  void PlanArrivals(int boundary, std::vector<MovePlan>& moves) const;
  /// Installs suffix_ into regions >= boundary: drops their payload
  /// tombstones (renumbering the survivors) and files the arrivals as
  /// payload objects.
  void InstallSuffix(int boundary);

  void PlaceOrMove(ObjectId id, const Extent& extent, bool already_placed);
  void MoveTracked(ObjectId id, const Extent& to);

  /// Move-plan staging for the flush paths: PlanMove stages, and
  /// FlushPlannedMoves applies everything staged so far as one
  /// Space::ApplyMoves batch (one batch per flush stage, or per
  /// checkpoint phase in the durability variants). Staged plans must be
  /// applied before anything reads the movers' extents again.
  void PlanMove(ObjectId id, const Extent& to) {
    move_batch_.push_back(MovePlan{id, to});
  }
  void FlushPlannedMoves();

  /// Payload membership changes route through these so
  /// Region::payload_live and payload_holes stay exact without per-flush
  /// re-derivation. Append returns the object's position; Erase
  /// tombstones the object at `position` in O(1).
  static std::size_t AppendPayloadObject(Region& region, ObjectId id,
                                         std::uint64_t size) {
    region.payload_objects.push_back(id);
    region.payload_live += size;
    return region.payload_objects.size() - 1;
  }
  static void ErasePayloadObject(Region& region, std::size_t position,
                                 ObjectId id, std::uint64_t size);
  /// Drops the tombstones of `region`'s payload list, renumbering the
  /// survivors' positions.
  void CompactPayloadList(Region& region);
  void Notify(FlushEvent::Stage stage, int boundary);
  void NoteTempFootprint(std::uint64_t end);

  /// Checks the per-region invariants and accumulates per-class volume,
  /// total volume, and object count for CheckAccounting.
  Status CheckRegions(std::vector<std::uint64_t>& class_volume,
                      std::uint64_t& total, std::size_t& count) const;
  /// Checks one buffer: entries of classes <= max_class, live ones filed
  /// under `region` and packed in order from `start`. Accumulates like
  /// CheckRegions and sets `used` to the buffer's consumed space.
  Status CheckBufferEntries(const std::vector<BufferEntry>& entries,
                            std::uint64_t start, int region, int max_class,
                            std::uint64_t& used,
                            std::vector<std::uint64_t>& class_volume,
                            std::uint64_t& total, std::size_t& count) const;
  /// Checks the accumulated per-class and global volume and object counts
  /// against the bookkeeping and the space, and that nothing lies beyond
  /// the reserved end.
  Status CheckAccounting(const std::vector<std::uint64_t>& class_volume,
                         std::uint64_t total, std::size_t count) const;

  Space* space_;
  double epsilon_;
  /// Whether updates may spill into buffers of larger classes (the paper's
  /// rule). Disabled only by the ablation experiment.
  bool spill_upward_ = true;
  std::vector<Region> regions_;         // index = size class; [0] unused
  // Active volume per class, sized for every class of a 64-bit size.
  std::vector<std::uint64_t> volumes_;
  ObjectTable objects_;
  std::uint64_t total_volume_ = 0;
  std::uint64_t delta_ = 0;
  std::uint64_t flush_count_ = 0;
  std::uint64_t move_count_ = 0;
  std::uint64_t moved_volume_ = 0;
  std::uint64_t max_temp_footprint_ = 0;
  FlushListener* flush_listener_ = nullptr;
  std::vector<MovePlan> move_batch_;  // staged flush moves (PlanMove)
  std::vector<RegionPlan> suffix_;    // index = size class (PlanSuffix)
};

}  // namespace cosr

#endif  // COSR_CORE_SIZE_CLASS_LAYOUT_H_
