#ifndef COSR_REALLOC_PACKED_MEMORY_ARRAY_H_
#define COSR_REALLOC_PACKED_MEMORY_ARRAY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "cosr/realloc/reallocator.h"
#include "cosr/storage/space.h"

namespace cosr {

/// A sparse table / packed-memory array [Itai-Konheim-Rodeh 81; Bender et
/// al.], the order-preserving comparator from the paper's related work:
/// it also solves storage reallocation, but under the extra constraint that
/// objects stay sorted by id — "which makes the problem harder and the
/// reallocation cost correspondingly larger" (Θ(log² n) amortized moves per
/// update vs the cost-oblivious structure's O((1/ε)log(1/ε))).
///
/// Classical density-threshold design for uniform slot sizes: the array is
/// a sequence of Θ(log capacity) sized leaf segments; a window at depth d of
/// the implicit binary tree must keep its density within [ρ_d, τ_d], where
/// the bounds tighten from the leaves toward the root. An update rebalances
/// the smallest enclosing window back inside its thresholds (two moves per
/// object: pack left, then spread evenly); root overflow/underflow resizes
/// the whole table, keeping the footprint Θ(volume).
class PackedMemoryArray : public Reallocator {
 public:
  struct Options {
    /// All objects must have exactly this size (the classical sparse-table
    /// setting; the paper's related work notes these structures "are easily
    /// adapted to deal with different-sized objects" at linear cost — we
    /// keep the canonical uniform version).
    std::uint64_t slot_size = 1;
  };

  PackedMemoryArray(Space* space, Options options);
  explicit PackedMemoryArray(Space* space)
      : PackedMemoryArray(space, Options()) {}
  PackedMemoryArray(const PackedMemoryArray&) = delete;
  PackedMemoryArray& operator=(const PackedMemoryArray&) = delete;

  /// Inserts keeping ids sorted by physical address. `size` must equal
  /// Options::slot_size.
  Status Insert(ObjectId id, std::uint64_t size) override;
  Status Delete(ObjectId id) override;
  std::uint64_t reserved_footprint() const override {
    return capacity_ * options_.slot_size;
  }
  std::uint64_t volume() const override {
    return count_ * options_.slot_size;
  }
  const char* name() const override { return "pma"; }

  std::uint64_t capacity_slots() const { return capacity_; }
  std::uint64_t rebalances() const { return rebalances_; }
  std::uint64_t resizes() const { return resizes_; }

  /// Verifies order (ids ascending by address), density bounds at the
  /// root, and index/space agreement.
  bool SelfCheck() const;

 private:
  std::uint64_t SlotOffset(std::uint64_t slot) const {
    return slot * options_.slot_size;
  }
  int TreeHeight() const;
  std::uint64_t LeafSize() const { return leaf_size_; }

  /// Density limits for a window at depth d (root = 0, leaves = height).
  double MaxDensity(int depth) const;
  double MinDensity(int depth) const;

  /// Rewrites `window` cells starting at `window_start` so the `ids` are
  /// evenly spread; every other cell empties. Two physical passes: pack
  /// left, then spread right-to-left.
  void Spread(std::uint64_t window_start, std::uint64_t window_size,
              const std::vector<ObjectId>& ids);

  /// Collects the live ids of [start, start+size) in address order.
  std::vector<ObjectId> Collect(std::uint64_t start,
                                std::uint64_t size) const;

  /// After an update touching `slot`, walks up the window hierarchy until
  /// densities are legal again, rebalancing (or resizing the table).
  void RebalanceAfter(std::uint64_t slot);

  /// Rebuilds the whole table at `new_capacity` slots.
  void Resize(std::uint64_t new_capacity);

  Space* space_;
  Options options_;
  std::uint64_t capacity_ = 0;   // slots; power of two
  std::uint64_t leaf_size_ = 0;  // slots per leaf segment; power of two
  std::uint64_t count_ = 0;      // live objects
  std::vector<ObjectId> cells_;  // kInvalidObjectId = empty
  std::map<ObjectId, std::uint64_t> slot_of_;  // sorted index: id -> slot
  std::uint64_t rebalances_ = 0;
  std::uint64_t resizes_ = 0;
};

}  // namespace cosr

#endif  // COSR_REALLOC_PACKED_MEMORY_ARRAY_H_
