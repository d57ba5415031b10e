#ifndef COSR_COMMON_U64_HASH_MAP_H_
#define COSR_COMMON_U64_HASH_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cosr/common/huge_pages.h"
#include "cosr/common/math_util.h"

namespace cosr {

/// Open-addressed hash map from a u64 key to a small inline value: the
/// gap-boundary tables behind BinnedFreeIndex's O(1) coalescing and the
/// id -> ObjectInfo table of the size-class layout.
///
/// Linear probing over a power-of-two slot array kept at most half full,
/// with a multiplicative (Fibonacci) hash. Erase shifts the rest of the
/// probe run back into the hole, so the table never holds tombstones and
/// a lookup stops at the first empty slot. Each entry lives inline in its
/// slot: an insert or erase allocates nothing unless the table doubles.
/// A slot array of 4 MiB or more gets huge-page advice
/// (cosr/common/huge_pages.h).
///
/// Every key is valid (offset 0 included), so an empty slot is marked by
/// its value: `Vacancy::kValue` is the one Value that is never stored, and
/// `Vacancy::IsVacant(v)` tests for it.
template <typename Value, typename Vacancy>
class U64HashMap {
 public:
  static constexpr std::size_t kMinCapacity = 16;

  U64HashMap() { Rehash(kMinCapacity); }

  /// The value stored under `key`, or nullptr when the key is absent. The
  /// pointer is valid until the next Insert or Erase.
  Value* Find(std::uint64_t key) {
    for (std::size_t i = HomeSlot(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (Vacancy::IsVacant(slot.value)) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }
  const Value* Find(std::uint64_t key) const {
    return const_cast<U64HashMap*>(this)->Find(key);
  }

  /// Maps `key` to `value` (not vacant), replacing any previous mapping.
  void Insert(std::uint64_t key, const Value& value) {
    if ((size_ + 1) * 2 > slots_.size()) Rehash(slots_.size() * 2);
    std::size_t i = HomeSlot(key);
    while (!Vacancy::IsVacant(slots_[i].value) && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    if (Vacancy::IsVacant(slots_[i].value)) ++size_;
    slots_[i] = Slot{key, value};
  }

  /// Removes `key`, storing its value in `*erased` when non-null; returns
  /// false when it was absent. Backward-shift deletion: every later member
  /// of the probe run whose home slot does not lie cyclically after the
  /// hole moves into it, and the hole advances to where that member was.
  bool Erase(std::uint64_t key, Value* erased = nullptr) {
    std::size_t hole = HomeSlot(key);
    for (;; hole = (hole + 1) & mask_) {
      if (Vacancy::IsVacant(slots_[hole].value)) return false;
      if (slots_[hole].key == key) break;
    }
    if (erased != nullptr) *erased = slots_[hole].value;
    for (std::size_t j = (hole + 1) & mask_;
         !Vacancy::IsVacant(slots_[j].value); j = (j + 1) & mask_) {
      // Distance from j's home to j versus from the hole to j: when the
      // home is no closer than the hole, j may (and must) fill the hole.
      const std::size_t displacement = (j - HomeSlot(slots_[j].key)) & mask_;
      if (displacement >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].value = Vacancy::kValue;
    --size_;
    return true;
  }

  /// Calls fn(key, value) for every entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (!Vacancy::IsVacant(slot.value)) fn(slot.key, slot.value);
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
  /// 2^64 / golden ratio: spreads clustered keys over the high bits.
  static constexpr std::uint64_t kHashMultiplier = 0x9e3779b97f4a7c15ull;

  struct Slot {
    std::uint64_t key = 0;
    Value value = Vacancy::kValue;
  };

  /// Moves every entry into a fresh array of `capacity` (a power of two).
  void Rehash(std::size_t capacity) {
    SlotArray old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = static_cast<std::uint32_t>(64 - FloorLog2(capacity));
    for (const Slot& slot : old) {
      if (Vacancy::IsVacant(slot.value)) continue;
      std::size_t i = HomeSlot(slot.key);
      while (!Vacancy::IsVacant(slots_[i].value)) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  using SlotArray = std::vector<Slot, HugePageAllocator<Slot>>;

  SlotArray slots_;
  std::size_t mask_ = 0;
  std::uint32_t shift_ = 64;  // 64 - log2(capacity)
  std::size_t size_ = 0;
};

}  // namespace cosr

#endif  // COSR_COMMON_U64_HASH_MAP_H_
