#ifndef COSR_STORAGE_OFFSET_INDEX_H_
#define COSR_STORAGE_OFFSET_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cosr/common/types.h"

namespace cosr {

/// Ordered (offset -> ObjectId) index of AddressSpace: a
/// B-tree-flavored paged sorted vector. Entries live in small sorted pages;
/// a flat array of page minima locates the target page with one binary
/// search over contiguous integers, a second binary search lands inside a
/// ~2 KiB page, and an insert/erase memmoves at most one page. Chosen over
/// std::map (pointer-chasing red-black tree) and a skip structure (extra
/// per-node pointers, no cache density) — bench/exp_address_space.cc
/// measures the resulting AddressSpace against the std::map reference
/// model in tests/reference/reference_space.h.
///
/// Pages split when full and are dropped when empty; deletions in between
/// may leave pages underfull, which costs memory slack but never asymptotic
/// time (the minima array stays one entry per page).
class OffsetIndex {
 public:
  struct Entry {
    std::uint64_t offset = 0;
    ObjectId id = kInvalidObjectId;
  };

  /// The entries adjacent to a just-inserted entry (copied at insertion
  /// time, excluding the new entry itself). The caller runs its
  /// disjointness checks against these without a second search.
  struct Neighbors {
    Entry pred;
    Entry succ;
    bool has_pred = false;
    bool has_succ = false;
  };

  /// Inserts (offset, id) and reports the resulting neighbors.
  Neighbors Insert(std::uint64_t offset, ObjectId id);

  /// Removes the entry at exactly `offset`; returns false when absent.
  bool Erase(std::uint64_t offset);

  /// The entry with the largest offset, or nullptr when empty.
  const Entry* Last() const {
    return pages_.empty() ? nullptr : &pages_.back().entries.back();
  }

  /// The entry with the largest offset strictly below `limit`, or nullptr
  /// when none exists. Two binary searches, like FindPage + an in-page
  /// probe; backs Space::footprint_below.
  const Entry* LastBefore(std::uint64_t limit) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void Clear();

  /// Visits every entry in ascending offset order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Page& page : pages_) {
      for (const Entry& entry : page.entries) fn(entry);
    }
  }

 private:
  // 128 16-byte entries = 2 KiB per page: large enough that the minima
  // array stays tiny, small enough that an insertion memmove is a
  // cache-resident operation.
  static constexpr std::size_t kPageCapacity = 128;

  struct Page {
    std::vector<Entry> entries;
  };

  /// Index of the page whose range covers `offset` (the last page whose
  /// minimum is <= offset, clamped to page 0).
  std::size_t FindPage(std::uint64_t offset) const;

  void Split(std::size_t page_index);

  std::vector<Page> pages_;
  std::vector<std::uint64_t> page_min_;  // pages_[i].entries.front().offset
  std::size_t size_ = 0;
};

}  // namespace cosr

#endif  // COSR_STORAGE_OFFSET_INDEX_H_
