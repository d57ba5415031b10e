#ifndef COSR_TESTS_REFERENCE_MAP_FREE_LIST_H_
#define COSR_TESTS_REFERENCE_MAP_FREE_LIST_H_

// Test-side reference model of BinnedFreeIndex: free gaps below the
// frontier in an ordered std::map, with the same frontier contract (space
// at or beyond the frontier is implicitly free; gaps touching it shrink it)
// and the same Reserve/Release set arithmetic. Its queries are exact and
// O(#gaps): FindFirstFit returns the lowest-offset adequate gap and
// FindBestFit the tightest one (lowest offset on ties) — the classical
// placement rules the binned index approximates bin-granularly. Under the
// same mutation sequence both report identical gap sets, free volume and
// frontier; only which gap a query picks differs.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "cosr/common/check.h"
#include "cosr/storage/extent.h"

namespace cosr {

class MapFreeList {
 public:
  std::optional<std::uint64_t> FindFirstFit(std::uint64_t size) const {
    for (const auto& [offset, length] : gaps_) {
      if (length >= size) return offset;
    }
    return std::nullopt;
  }

  std::optional<std::uint64_t> FindBestFit(std::uint64_t size) const {
    std::optional<std::uint64_t> best;
    std::uint64_t best_length = 0;
    for (const auto& [offset, length] : gaps_) {
      if (length < size) continue;
      if (!best.has_value() || length < best_length) {
        best = offset;
        best_length = length;
      }
    }
    return best;
  }

  /// Claims [offset, offset+size). The range must lie in a tracked gap or
  /// start at/beyond the frontier (which then advances).
  void Reserve(std::uint64_t offset, std::uint64_t size) {
    COSR_CHECK(size > 0);
    if (offset >= frontier_) {
      // Allocation in untracked space: any skipped space becomes a gap.
      if (offset > frontier_) AddGap(frontier_, offset - frontier_);
      frontier_ = offset + size;
      return;
    }
    auto it = gaps_.upper_bound(offset);
    COSR_CHECK_MSG(it != gaps_.begin(), "reserve outside any gap");
    --it;
    const std::uint64_t gap_offset = it->first;
    const std::uint64_t gap_end = it->first + it->second;
    COSR_CHECK_LE(offset + size, gap_end);
    free_volume_ -= it->second;
    gaps_.erase(it);
    if (offset > gap_offset) AddGap(gap_offset, offset - gap_offset);
    if (gap_end > offset + size) AddGap(offset + size, gap_end - offset - size);
  }

  /// Returns an extent to the free pool, merging adjacent gaps.
  void Release(const Extent& extent) {
    COSR_CHECK(extent.length > 0);
    COSR_CHECK_LE(extent.end(), frontier_);
    std::uint64_t offset = extent.offset;
    std::uint64_t end = extent.end();
    auto next = gaps_.find(end);
    if (next != gaps_.end()) {
      end += next->second;
      free_volume_ -= next->second;
      gaps_.erase(next);
    }
    auto it = gaps_.lower_bound(offset);
    if (it != gaps_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == offset) {
        offset = prev->first;
        free_volume_ -= prev->second;
        gaps_.erase(prev);
      }
    }
    if (end == frontier_) {
      frontier_ = offset;  // trailing gap: shrink the frontier
      return;
    }
    AddGap(offset, end - offset);
  }

  std::uint64_t frontier() const { return frontier_; }
  std::uint64_t free_volume() const { return free_volume_; }
  std::size_t gap_count() const { return gaps_.size(); }

  /// All tracked gaps in ascending offset order.
  std::vector<Extent> Gaps() const {
    std::vector<Extent> gaps;
    gaps.reserve(gaps_.size());
    for (const auto& [offset, length] : gaps_) {
      gaps.push_back(Extent{offset, length});
    }
    return gaps;
  }

 private:
  void AddGap(std::uint64_t offset, std::uint64_t length) {
    gaps_.emplace(offset, length);
    free_volume_ += length;
  }

  std::map<std::uint64_t, std::uint64_t> gaps_;  // offset -> length
  std::uint64_t frontier_ = 0;
  std::uint64_t free_volume_ = 0;  // tracked gaps only (below frontier)
};

}  // namespace cosr

#endif  // COSR_TESTS_REFERENCE_MAP_FREE_LIST_H_
