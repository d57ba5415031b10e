#include "cosr/storage/offset_index.h"

#include <algorithm>

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

std::size_t OffsetIndex::LowerBound(const Page& page, std::uint64_t offset) {
  return static_cast<std::size_t>(
      std::lower_bound(page.entries.begin(), page.entries.end(), offset,
                       OffsetBelow) -
      page.entries.begin());
}

const OffsetIndex::Entry* OffsetIndex::LastBefore(std::uint64_t limit) const {
  if (pages_.empty()) return nullptr;
  // The candidate page is the last one whose minimum is below `limit`.
  const auto page_it =
      std::lower_bound(page_min_.begin(), page_min_.end(), limit);
  if (page_it == page_min_.begin()) return nullptr;
  const Page& page =
      pages_[static_cast<std::size_t>(page_it - page_min_.begin()) - 1];
  // page_min < limit guarantees at least one qualifying entry in the page.
  return &page.entries[LowerBound(page, limit) - 1];
}

OffsetIndex::Neighbors OffsetIndex::Insert(std::uint64_t offset, ObjectId id) {
  Neighbors neighbors;
  if (pages_.empty()) {
    pages_.emplace_back();
    pages_.back().entries.reserve(kPageCapacity);
    pages_.back().entries.push_back(Entry{offset, id});
    page_min_.push_back(offset);
    size_ = 1;
    return neighbors;
  }
  const std::size_t p = FindPage(offset);
  Page& page = pages_[p];
  const auto pos = std::upper_bound(
      page.entries.begin(), page.entries.end(), offset,
      [](std::uint64_t value, const Entry& e) { return value < e.offset; });
  const auto i = static_cast<std::size_t>(pos - page.entries.begin());
  if (i > 0) {
    neighbors.pred = page.entries[i - 1];
    neighbors.has_pred = true;
  } else if (p > 0) {
    neighbors.pred = pages_[p - 1].entries.back();
    neighbors.has_pred = true;
  }
  if (i < page.entries.size()) {
    neighbors.succ = page.entries[i];
    neighbors.has_succ = true;
  } else if (p + 1 < pages_.size()) {
    neighbors.succ = pages_[p + 1].entries.front();
    neighbors.has_succ = true;
  }
  page.entries.insert(pos, Entry{offset, id});
  if (i == 0) page_min_[p] = offset;
  ++size_;
  // A full page splits in two, as a batch merge would split it.
  if (page.entries.size() >= kPageCapacity) MergeIntoPage(p, nullptr, 0);
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
    std::vector<Entry>& entries = pages_[p].entries;
    auto in = entries.begin() +
              static_cast<long>(LowerBound(pages_[p], offsets[k]));
    auto out = in;
    for (std::size_t j = k; j < end; ++j, ++in) {
      while (in != entries.end() && in->offset < offsets[j]) *out++ = *in++;
      // Absent, or repeated (the previous step consumed the entry).
      if (in == entries.end() || in->offset != offsets[j]) return false;
    }
    out = std::copy(in, entries.end(), out);
    entries.erase(out, entries.end());
    size_ -= end - k;
    if (entries.empty()) {
      *emptied = true;
    } else {
      page_min_[p] = entries.front().offset;
    }
    k = end;
  }
  return true;
}

void OffsetIndex::InsertSorted(const Entry* entries, std::size_t count) {
  if (count == 0) return;
  if (pages_.empty()) {
    pages_.emplace_back();
    pages_.back().entries.reserve(kPageCapacity);
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
  const std::size_t old_size = pages_[p].entries.size();
  const std::size_t total = old_size + count;
  const std::size_t pieces =
      total < kPageCapacity ? 1 : total / (kPageCapacity / 2);
  if (pieces > 1) {
    const auto at = static_cast<long>(p) + 1;
    pages_.insert(pages_.begin() + at, pieces - 1, Page{});
    page_min_.insert(page_min_.begin() + at, pieces - 1, 0);
    for (std::size_t q = p + 1; q < p + pieces; ++q) {
      pages_[q].entries.reserve(kPageCapacity);
    }
  }
  // Piece q holds base entries, plus one for the first `extra` pieces.
  const std::size_t base = total / pieces;
  const std::size_t extra = total % pieces;
  std::vector<Entry>& old = pages_[p].entries;
  const std::size_t first_size = base + (extra > 0 ? 1 : 0);
  // Both sizes stay below kPageCapacity, so this never reallocates. The
  // merge writes old[d] only once the unread old entries all sit below d.
  old.resize(std::max(old_size, first_size));
  std::size_t a = old_size;  // unread old entries: old[0, a)
  std::size_t b = count;     // unread new entries: entries[0, b)
  for (std::size_t q = pieces; q-- > 0;) {
    std::vector<Entry>& out = pages_[p + q].entries;
    const std::size_t len = base + (q < extra ? 1 : 0);
    if (q > 0) out.resize(len);
    for (std::size_t d = len; d-- > 0;) {
      if (b > 0 && (a == 0 || entries[b - 1].offset >= old[a - 1].offset)) {
        out[d] = entries[--b];
      } else {
        out[d] = old[--a];
      }
    }
    page_min_[p + q] = out.front().offset;
  }
  old.resize(first_size);
}

void OffsetIndex::DropEmptyPages() {
  std::size_t kept = 0;
  for (std::size_t p = 0; p < pages_.size(); ++p) {
    if (pages_[p].entries.empty()) continue;
    if (kept != p) {
      pages_[kept] = std::move(pages_[p]);
      page_min_[kept] = page_min_[p];
    }
    ++kept;
  }
  pages_.resize(kept);
  page_min_.resize(kept);
}

void OffsetIndex::Clear() {
  pages_.clear();
  page_min_.clear();
  size_ = 0;
}

bool OffsetIndex::SelfCheck() const {
  if (page_min_.size() != pages_.size()) return false;
  std::size_t total = 0;
  for (std::size_t p = 0; p < pages_.size(); ++p) {
    const std::vector<Entry>& entries = pages_[p].entries;
    if (entries.empty() || entries.size() >= kPageCapacity) return false;
    if (page_min_[p] != entries.front().offset) return false;
    for (std::size_t i = 1; i < entries.size(); ++i) {
      if (entries[i - 1].offset >= entries[i].offset) return false;
    }
    if (p > 0 && pages_[p - 1].entries.back().offset >= page_min_[p]) {
      return false;
    }
    total += entries.size();
  }
  return total == size_;
}

}  // namespace cosr
