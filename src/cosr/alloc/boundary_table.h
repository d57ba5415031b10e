#ifndef COSR_ALLOC_BOUNDARY_TABLE_H_
#define COSR_ALLOC_BOUNDARY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cosr/common/math_util.h"

namespace cosr {

/// Open-addressed hash map from a gap boundary offset to a node index: the
/// start/end lookup tables behind BinnedFreeIndex's O(1) coalescing.
///
/// Linear probing over a power-of-two slot array kept at most half full,
/// with a multiplicative (Fibonacci) hash. Erase shifts the rest of the
/// probe run back into the hole, so the table never holds tombstones and
/// a lookup stops at the first empty slot. Each entry lives inline in its
/// slot: an insert or erase allocates nothing unless the table doubles.
///
/// Offset 0 is a valid key, so an empty slot is marked by `node == kNil`,
/// never by its key. kNil is therefore not a storable node value.
class BoundaryTable {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kMinCapacity = 16;

  BoundaryTable() { Rehash(kMinCapacity); }

  /// Node stored under `key`, or kNil when the key is absent.
  std::uint32_t Find(std::uint64_t key) const {
    for (std::size_t i = HomeSlot(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.node == kNil) return kNil;
      if (slot.key == key) return slot.node;
    }
  }

  /// Maps `key` to `node` (!= kNil), replacing any previous mapping.
  void Insert(std::uint64_t key, std::uint32_t node) {
    if ((size_ + 1) * 2 > slots_.size()) Rehash(slots_.size() * 2);
    std::size_t i = HomeSlot(key);
    while (slots_[i].node != kNil && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    if (slots_[i].node == kNil) ++size_;
    slots_[i] = Slot{key, node};
  }

  /// Removes `key`; returns false when it was absent. Backward-shift
  /// deletion: every later member of the probe run whose home slot does
  /// not lie cyclically after the hole moves into it, and the hole
  /// advances to where that member was.
  bool Erase(std::uint64_t key) {
    std::size_t hole = HomeSlot(key);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].node == kNil) return false;
      if (slots_[hole].key == key) break;
    }
    for (std::size_t j = (hole + 1) & mask_; slots_[j].node != kNil;
         j = (j + 1) & mask_) {
      // Distance from j's home to j versus from the hole to j: when the
      // home is no closer than the hole, j may (and must) fill the hole.
      const std::size_t displacement = (j - HomeSlot(slots_[j].key)) & mask_;
      if (displacement >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].node = kNil;
    --size_;
    return true;
  }

  /// Calls fn(key, node) for every entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.node != kNil) fn(slot.key, slot.node);
    }
  }

  std::size_t size() const { return size_; }
  /// Slot count: a power of two, at least twice size().
  std::size_t capacity() const { return slots_.size(); }
  /// Slot where a probe for `key` starts (tests use it to build collisions).
  std::size_t HomeSlot(std::uint64_t key) const {
    return static_cast<std::size_t>((key * kHashMultiplier) >> shift_);
  }

 private:
  /// 2^64 / golden ratio: spreads clustered offsets over the high bits.
  static constexpr std::uint64_t kHashMultiplier = 0x9e3779b97f4a7c15ull;

  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t node = kNil;
  };

  /// Moves every entry into a fresh array of `capacity` (a power of two).
  void Rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = static_cast<std::uint32_t>(64 - FloorLog2(capacity));
    for (const Slot& slot : old) {
      if (slot.node == kNil) continue;
      std::size_t i = HomeSlot(slot.key);
      while (slots_[i].node != kNil) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint32_t shift_ = 64;  // 64 - log2(capacity)
  std::size_t size_ = 0;
};

}  // namespace cosr

#endif  // COSR_ALLOC_BOUNDARY_TABLE_H_
