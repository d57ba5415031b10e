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
/// A whole move batch goes through ApplyBatch: one ordered pass that
/// visits only the pages whose range holds an erased or inserted offset
/// and rewrites each of them once (a left-to-right compaction for the
/// erases, then a right-to-left merge for the inserts). A batch of m moves
/// touching P pages costs O(P * page + m log m) instead of the
/// O(m * page) of m single erases and inserts.
///
/// Pages split when full and are dropped when empty; deletions in between
/// may leave pages underfull, which costs memory slack but never asymptotic
/// time (the minima array stays one entry per page). Every page holds
/// fewer than kPageCapacity entries, and its storage never grows past
/// kPageCapacity.
class OffsetIndex {
 public:
  // 128 16-byte entries = 2 KiB per page: large enough that the minima
  // array stays tiny, small enough that an insertion memmove is a
  // cache-resident operation.
  static constexpr std::size_t kPageCapacity = 128;

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

  /// Removes the entries at the ascending offsets `erase`, then inserts the
  /// `inserts`, sorted by offset, in one pass over the touched pages. An
  /// inserted offset may reuse one erased in the same batch. Returns false
  /// when an erased offset is absent or repeated; the index is then left
  /// in an unspecified state (callers abort).
  bool ApplyBatch(const std::uint64_t* erase, std::size_t erase_count,
                  const Entry* inserts, std::size_t insert_count);

  /// Calls fn(pred, entry, succ) for the entry at each offset of `keys`
  /// (sorted by offset, each present in the index). `pred` and `succ` are
  /// the entry's neighbors in the whole index, across page boundaries, or
  /// nullptr at its ends. The walk steps forward from the previous key, so
  /// keys that sit next to each other cost O(1) each.
  template <typename Fn>
  void ForEachNeighborhood(const Entry* keys, std::size_t count,
                           Fn&& fn) const;

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

  /// The first offset of every page, ascending: where the page boundaries
  /// fall (diagnostics and tests).
  const std::vector<std::uint64_t>& page_minima() const { return page_min_; }
  void Clear();

  /// Verifies the page structure: no page is empty, each holds fewer than
  /// kPageCapacity entries in ascending order, page_min_ matches every
  /// page's first offset, pages are ordered, and size() is the sum of the
  /// page sizes.
  bool SelfCheck() const;

  /// Visits every entry in ascending offset order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Page& page : pages_) {
      for (const Entry& entry : page.entries) fn(entry);
    }
  }

  /// Visits the entries with lo <= offset < hi in ascending offset order:
  /// one search for the first, then a walk that stops at `hi`.
  template <typename Fn>
  void ForEachInRange(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    if (pages_.empty() || lo >= hi) return;
    const std::size_t first = FindPage(lo);
    for (std::size_t p = first; p < pages_.size(); ++p) {
      const std::vector<Entry>& entries = pages_[p].entries;
      for (std::size_t i = p == first ? LowerBound(pages_[p], lo) : 0;
           i < entries.size(); ++i) {
        if (entries[i].offset >= hi) return;
        fn(entries[i]);
      }
    }
  }

 private:
  struct Page {
    std::vector<Entry> entries;
  };

  /// Index of the page whose range covers `offset` (the last page whose
  /// minimum is <= offset, clamped to page 0).
  std::size_t FindPage(std::uint64_t offset) const;

  /// Position of the first entry of `page` at or above `offset`.
  static std::size_t LowerBound(const Page& page, std::uint64_t offset);

  /// ApplyBatch's two halves. EraseSorted leaves emptied pages in place,
  /// with their old minimum, so they still bound a range the inserts can
  /// refill; ApplyBatch drops the ones left empty afterwards.
  bool EraseSorted(const std::uint64_t* offsets, std::size_t count,
                   bool* emptied);
  void InsertSorted(const Entry* entries, std::size_t count);

  /// Right-to-left merge of `count` sorted entries into page `p`, whose
  /// range holds all of them. A page that would reach kPageCapacity is
  /// split into pieces of kPageCapacity/2 to 3/4 kPageCapacity entries
  /// (a full page and no entries: two halves).
  void MergeIntoPage(std::size_t p, const Entry* entries, std::size_t count);

  void DropEmptyPages();

  std::vector<Page> pages_;
  std::vector<std::uint64_t> page_min_;  // pages_[i].entries.front().offset
  std::size_t size_ = 0;
};

template <typename Fn>
void OffsetIndex::ForEachNeighborhood(const Entry* keys, std::size_t count,
                                      Fn&& fn) const {
  std::size_t p = 0;
  std::size_t i = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t offset = keys[k].offset;
    // Runs of adjacent keys (a flush stage's packed targets) step to the
    // next entry; anything else searches.
    std::size_t next_p = p;
    std::size_t next_i = i + 1;
    if (next_p < pages_.size() && next_i == pages_[next_p].entries.size()) {
      ++next_p;
      next_i = 0;
    }
    if (k > 0 && next_p < pages_.size() &&
        pages_[next_p].entries[next_i].offset == offset) {
      p = next_p;
      i = next_i;
    } else {
      p = FindPage(offset);
      i = LowerBound(pages_[p], offset);
    }
    const std::vector<Entry>& page = pages_[p].entries;
    const Entry* pred = i > 0    ? &page[i - 1]
                        : p > 0  ? &pages_[p - 1].entries.back()
                                 : nullptr;
    const Entry* succ = i + 1 < page.size()     ? &page[i + 1]
                        : p + 1 < pages_.size() ? &pages_[p + 1].entries.front()
                                                : nullptr;
    fn(pred, page[i], succ);
  }
}

}  // namespace cosr

#endif  // COSR_STORAGE_OFFSET_INDEX_H_
