#include "cosr/storage/offset_index.h"

#include <algorithm>
#include <cstring>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define COSR_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define COSR_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define COSR_POISON(p, n) ((void)(p), (void)(n))
#define COSR_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace cosr {

namespace {

bool OffsetBelow(const OffsetIndex::Entry& e, std::uint64_t value) {
  return e.offset < value;
}

}  // namespace

std::size_t OffsetIndex::FindPage(std::uint64_t offset) const {
  const auto it =
      std::upper_bound(page_min_.begin(), page_min_.end(), offset);
  if (it == page_min_.begin()) return 0;
  return static_cast<std::size_t>(it - page_min_.begin()) - 1;
}

std::size_t OffsetIndex::LowerBound(const PageRef& page,
                                    std::uint64_t offset) {
  return static_cast<std::size_t>(
      std::lower_bound(page.begin(), page.end(), offset, OffsetBelow) -
      page.begin());
}

const OffsetIndex::Entry* OffsetIndex::LastBefore(std::uint64_t limit) const {
  if (pages_.empty()) return nullptr;
  // The candidate page is the last one whose minimum is below `limit`.
  const auto page_it =
      std::lower_bound(page_min_.begin(), page_min_.end(), limit);
  if (page_it == page_min_.begin()) return nullptr;
  const PageRef& page =
      pages_[static_cast<std::size_t>(page_it - page_min_.begin()) - 1];
  // page_min < limit guarantees at least one qualifying entry in the page.
  return &page[LowerBound(page, limit) - 1];
}

OffsetIndex::Neighbors OffsetIndex::Insert(std::uint64_t offset, ObjectId id) {
  Neighbors neighbors;
  const Entry entry{offset, id};
  if (pages_.empty()) {
    Page* page = AcquirePage();
    page->entries[0] = entry;
    pages_.push_back(PageRef{page, 1});
    page_min_.push_back(offset);
    size_ = 1;
    return neighbors;
  }
  const std::size_t p = FindPage(offset);
  PageRef& page = pages_[p];
  Entry* const pos = std::upper_bound(
      page.begin(), page.end(), offset,
      [](std::uint64_t value, const Entry& e) { return value < e.offset; });
  const auto i = static_cast<std::size_t>(pos - page.begin());
  if (i > 0) {
    neighbors.pred = page[i - 1];
    neighbors.has_pred = true;
  } else if (p > 0) {
    neighbors.pred = pages_[p - 1].back();
    neighbors.has_pred = true;
  }
  if (i < page.size) {
    neighbors.succ = page[i];
    neighbors.has_succ = true;
  } else if (p + 1 < pages_.size()) {
    neighbors.succ = pages_[p + 1].front();
    neighbors.has_succ = true;
  }
  ++size_;
  if (page.size + 1 >= kPageCapacity) {
    // A full page splits in two around the new entry, as a batch merge
    // would split it.
    MergeIntoPage(p, &entry, 1);
    return neighbors;
  }
  std::copy_backward(pos, page.end(), page.end() + 1);
  *pos = entry;
  ++page.size;
  if (i == 0) page_min_[p] = offset;
  return neighbors;
}

bool OffsetIndex::Erase(std::uint64_t offset) {
  return ApplyBatch(&offset, 1, nullptr, 0);
}

bool OffsetIndex::ApplyBatch(const std::uint64_t* erase,
                             std::size_t erase_count, const Entry* inserts,
                             std::size_t insert_count) {
  bool emptied = false;
  if (!EraseSorted(erase, erase_count, &emptied)) return false;
  InsertSorted(inserts, insert_count);
  if (emptied) DropEmptyPages();
  return true;
}

bool OffsetIndex::EraseSorted(const std::uint64_t* offsets, std::size_t count,
                              bool* emptied) {
  std::size_t k = 0;
  while (k < count) {
    if (pages_.empty()) return false;
    const std::size_t p = FindPage(offsets[k]);
    // The offsets in page p's range: [k, end).
    const std::size_t end =
        p + 1 < pages_.size()
            ? static_cast<std::size_t>(
                  std::lower_bound(offsets + k, offsets + count,
                                   page_min_[p + 1]) -
                  offsets)
            : count;
    // Left-to-right compaction from the first erased position.
    PageRef& page = pages_[p];
    Entry* const last = page.end();
    Entry* in = page.begin() + LowerBound(page, offsets[k]);
    Entry* out = in;
    for (std::size_t j = k; j < end; ++j, ++in) {
      while (in != last && in->offset < offsets[j]) *out++ = *in++;
      // Absent, or repeated (the previous step consumed the entry).
      if (in == last || in->offset != offsets[j]) return false;
    }
    out = std::copy(in, last, out);
    page.size = static_cast<std::size_t>(out - page.begin());
    size_ -= end - k;
    if (page.size == 0) {
      // The page goes back to the pool now; its slot stays, null, with its
      // old minimum, until DropEmptyPages.
      ReleasePage(page.page);
      page.page = nullptr;
      *emptied = true;
    } else {
      page_min_[p] = page.front().offset;
    }
    k = end;
  }
  return true;
}

void OffsetIndex::InsertSorted(const Entry* entries, std::size_t count) {
  if (count == 0) return;
  if (pages_.empty()) {
    pages_.push_back(PageRef{AcquirePage(), 0});
    page_min_.push_back(entries[0].offset);
  }
  // Right to left, so pieces split off page p never shift the pages still
  // to be visited.
  std::size_t end = count;
  while (end > 0) {
    const std::size_t p = FindPage(entries[end - 1].offset);
    const std::size_t begin =
        p == 0 ? 0
               : static_cast<std::size_t>(
                     std::lower_bound(entries, entries + end - 1,
                                      page_min_[p], OffsetBelow) -
                     entries);
    MergeIntoPage(p, entries + begin, end - begin);
    end = begin;
  }
  size_ += count;
}

void OffsetIndex::MergeIntoPage(std::size_t p, const Entry* entries,
                                std::size_t count) {
  if (pages_[p].page == nullptr) pages_[p].page = AcquirePage();  // refill
  const std::size_t old_size = pages_[p].size;
  const std::size_t total = old_size + count;
  const std::size_t pieces =
      total < kPageCapacity ? 1 : total / (kPageCapacity / 2);
  if (pieces > 1) {
    const auto at = static_cast<long>(p) + 1;
    pages_.insert(pages_.begin() + at, pieces - 1, PageRef{});
    page_min_.insert(page_min_.begin() + at, pieces - 1, 0);
    for (std::size_t q = p + 1; q < p + pieces; ++q) {
      pages_[q].page = AcquirePage();
    }
  }
  // Piece q holds base entries, plus one for the first `extra` pieces;
  // every piece stays below kPageCapacity. Piece 0 is page p itself: the
  // merge writes old[d] only once the unread old entries all sit below d.
  const std::size_t base = total / pieces;
  const std::size_t extra = total % pieces;
  const Entry* old = pages_[p].begin();
  std::size_t a = old_size;  // unread old entries: old[0, a)
  std::size_t b = count;     // unread new entries: entries[0, b)
  for (std::size_t q = pieces; q-- > 0;) {
    PageRef& out = pages_[p + q];
    const std::size_t len = base + (q < extra ? 1 : 0);
    for (std::size_t d = len; d-- > 0;) {
      if (b > 0 && (a == 0 || entries[b - 1].offset >= old[a - 1].offset)) {
        out[d] = entries[--b];
      } else {
        out[d] = old[--a];
      }
    }
    out.size = len;
    page_min_[p + q] = out.front().offset;
  }
}

void OffsetIndex::DropEmptyPages() {
  std::size_t kept = 0;
  for (std::size_t p = 0; p < pages_.size(); ++p) {
    if (pages_[p].page == nullptr) continue;
    pages_[kept] = pages_[p];
    page_min_[kept] = page_min_[p];
    ++kept;
  }
  pages_.resize(kept);
  page_min_.resize(kept);
}

OffsetIndex::Page* OffsetIndex::AcquirePage() {
  if (Page* page = free_pages_; page != nullptr) {
    COSR_UNPOISON(page, sizeof(Page));
    std::memcpy(&free_pages_, static_cast<const void*>(page), sizeof(Page*));
    return page;
  }
  if (carved_ == kPagesPerChunk) {
    chunks_.Add();
    carved_ = 0;
  }
  return new (chunks_.back() + carved_++) Page();
}

void OffsetIndex::ReleasePage(Page* page) {
  std::memcpy(static_cast<void*>(page), &free_pages_, sizeof(Page*));
  free_pages_ = page;
  COSR_POISON(page, sizeof(Page));
}

void OffsetIndex::ReleaseChunks() {
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    COSR_UNPOISON(chunks_[c], kPagesPerChunk * sizeof(Page));
  }
  chunks_.Clear();
  carved_ = kPagesPerChunk;
  free_pages_ = nullptr;
}

void OffsetIndex::Clear() {
  pages_.clear();
  page_min_.clear();
  size_ = 0;
  ReleaseChunks();
}

bool OffsetIndex::SelfCheck() const {
  if (page_min_.size() != pages_.size()) return false;
  std::size_t total = 0;
  for (std::size_t p = 0; p < pages_.size(); ++p) {
    const PageRef& page = pages_[p];
    if (page.page == nullptr) return false;
    if (page.size == 0 || page.size >= kPageCapacity) return false;
    if (page_min_[p] != page.front().offset) return false;
    for (std::size_t i = 1; i < page.size; ++i) {
      if (page[i - 1].offset >= page[i].offset) return false;
    }
    if (p > 0 && pages_[p - 1].back().offset >= page_min_[p]) return false;
    total += page.size;
  }
  return total == size_;
}

}  // namespace cosr
