#ifndef COSR_STORAGE_OFFSET_INDEX_H_
#define COSR_STORAGE_OFFSET_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cosr/common/huge_pages.h"
#include "cosr/common/types.h"

namespace cosr {

/// Ordered (offset -> ObjectId) index of AddressSpace: a
/// B-tree-flavored paged sorted vector. Entries live in small sorted pages;
/// a flat array of page minima locates the target page with one binary
/// search over contiguous integers, a second binary search lands inside a
/// 2 KiB page, and an insert/erase memmoves at most one page. Chosen over
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
/// fewer than kPageCapacity entries.
///
/// Pages are fixed 2 KiB blocks carved from 2 MiB chunks the index owns
/// (its page pool); each page's entry count sits beside its pointer in the
/// page array. A dropped page goes on the pool's free list and the next
/// split takes it back, so a steady-state split or drop allocates nothing.
/// Chunks from the third on get huge-page advice (ChunkList in
/// cosr/common/huge_pages.h), so at millions of entries the pages share a
/// few TLB entries; an index under two chunks never touches a huge page.
/// In AddressSanitizer builds a page is poisoned while it sits on the free
/// list, so a stale entry pointer into a dropped page still reports.
class OffsetIndex {
 public:
  // A page is 128 16-byte entries = 2 KiB, of which at most 127 are used:
  // large enough that the minima array stays tiny, small enough that an
  // insertion memmove is a cache-resident operation.
  static constexpr std::size_t kPageCapacity = 128;
  /// Pages per pool chunk (one 2 MiB huge page).
  static constexpr std::size_t kPagesPerChunk = 1024;

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

  OffsetIndex() = default;
  OffsetIndex(const OffsetIndex&) = delete;
  OffsetIndex& operator=(const OffsetIndex&) = delete;
  ~OffsetIndex() { ReleaseChunks(); }

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
    return pages_.empty() ? nullptr : &pages_.back().back();
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
  /// Pages the pool holds, in use or free: its chunks times kPagesPerChunk.
  std::size_t pool_pages() const {
    return chunks_.size() * kPagesPerChunk;
  }
  /// Removes every entry and returns the pool's chunks.
  void Clear();

  /// Verifies the page structure: no page is empty, each holds fewer than
  /// kPageCapacity entries in ascending order, page_min_ matches every
  /// page's first offset, pages are ordered, and size() is the sum of the
  /// page sizes.
  bool SelfCheck() const;

  /// Visits every entry in ascending offset order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const PageRef& page : pages_) {
      for (const Entry& entry : page) fn(entry);
    }
  }

  /// Visits the entries with lo <= offset < hi in ascending offset order:
  /// one search for the first, then a walk that stops at `hi`.
  template <typename Fn>
  void ForEachInRange(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    if (pages_.empty() || lo >= hi) return;
    const std::size_t first = FindPage(lo);
    for (std::size_t p = first; p < pages_.size(); ++p) {
      const PageRef& page = pages_[p];
      for (std::size_t i = p == first ? LowerBound(page, lo) : 0;
           i < page.size; ++i) {
        if (page[i].offset >= hi) return;
        fn(page[i]);
      }
    }
  }

 private:
  /// A pool page. In use, entries[0, size) hold its entries in ascending
  /// offset order, with `size` in its PageRef; on the free list, its first
  /// bytes hold the next free page.
  struct Page {
    Entry entries[kPageCapacity];
  };
  static_assert(sizeof(Page) == 2048, "a page is 2 KiB");
  static_assert(kPagesPerChunk == ChunkList<Page>::kPerChunk);

  /// A page as the index holds it: the page and its entry count, side by
  /// side, so a search reads the count from the line that holds the
  /// pointer instead of from the page. A null `page` is an emptied slot
  /// waiting for DropEmptyPages.
  struct PageRef {
    Page* page = nullptr;
    std::size_t size = 0;

    Entry* begin() const { return page->entries; }
    Entry* end() const { return page->entries + size; }
    Entry& operator[](std::size_t i) const { return page->entries[i]; }
    const Entry& front() const { return page->entries[0]; }
    const Entry& back() const { return page->entries[size - 1]; }
  };

  /// Index of the page whose range covers `offset` (the last page whose
  /// minimum is <= offset, clamped to page 0).
  std::size_t FindPage(std::uint64_t offset) const;

  /// Position of the first entry of `page` at or above `offset`.
  static std::size_t LowerBound(const PageRef& page, std::uint64_t offset);

  /// ApplyBatch's two halves. EraseSorted returns an emptied page to the
  /// pool but leaves its slot in place, null and with its old minimum, so
  /// it still bounds a range the inserts can refill (with a fresh page);
  /// ApplyBatch drops the slots left null afterwards, a scan of the
  /// pointer array that reads no page.
  bool EraseSorted(const std::uint64_t* offsets, std::size_t count,
                   bool* emptied);
  void InsertSorted(const Entry* entries, std::size_t count);

  /// Right-to-left merge of `count` sorted entries into page `p`, whose
  /// range holds all of them. A page that would reach kPageCapacity is
  /// split into pieces of kPageCapacity/2 to 3/4 kPageCapacity entries
  /// (a full page and one entry: two halves).
  void MergeIntoPage(std::size_t p, const Entry* entries, std::size_t count);

  void DropEmptyPages();

  /// An empty page from the free list, else carved from the last chunk,
  /// else from a new chunk.
  Page* AcquirePage();
  /// Puts `page` on the free list.
  void ReleasePage(Page* page);
  /// Frees every chunk and empties the free list.
  void ReleaseChunks();

  std::vector<PageRef> pages_;
  std::vector<std::uint64_t> page_min_;  // pages_[i].front().offset
  std::size_t size_ = 0;

  // The page pool: chunks of kPagesPerChunk pages, the first `carved_`
  // pages of the last chunk handed out so far, and the free list.
  ChunkList<Page> chunks_;
  std::size_t carved_ = kPagesPerChunk;
  Page* free_pages_ = nullptr;
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
    if (next_p < pages_.size() && next_i == pages_[next_p].size) {
      ++next_p;
      next_i = 0;
    }
    if (k > 0 && next_p < pages_.size() &&
        pages_[next_p][next_i].offset == offset) {
      p = next_p;
      i = next_i;
    } else {
      p = FindPage(offset);
      i = LowerBound(pages_[p], offset);
    }
    const PageRef& page = pages_[p];
    const Entry* pred = i > 0    ? &page[i - 1]
                        : p > 0  ? &pages_[p - 1].back()
                                 : nullptr;
    const Entry* succ = i + 1 < page.size       ? &page[i + 1]
                        : p + 1 < pages_.size() ? &pages_[p + 1].front()
                                                : nullptr;
    fn(pred, page[i], succ);
  }
}

}  // namespace cosr

#endif  // COSR_STORAGE_OFFSET_INDEX_H_
