#ifndef COSR_ALLOC_BINNED_FREE_INDEX_H_
#define COSR_ALLOC_BINNED_FREE_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "cosr/alloc/boundary_table.h"
#include "cosr/common/huge_pages.h"
#include "cosr/common/status.h"
#include "cosr/storage/extent.h"

namespace cosr {

/// Binned free-space index in the style of Sebastian Aaltonen's
/// OffsetAllocator: gap sizes are bucketed into floating-point-style
/// (exponent + mantissa) bins, a two-level bitmap (one bit per bin group,
/// one byte of bin bits per group) is walked with tzcnt to find the
/// smallest bin whose gaps are guaranteed to fit, and gaps are held in
/// intrusive per-bin lists backed by a recycling node pool. Two
/// open-addressed boundary tables (BoundaryTable, keyed by gap start and
/// by gap end) give O(1) coalescing on Release without allocating a hash
/// node per gap.
///
/// Compared to the ordered-map scan it replaces, FindFit is O(1) instead of
/// O(#gaps) and every mutation is O(1) expected. The price is bin-granular
/// fit semantics: FindFit only consults bins whose *smallest* member fits,
/// so a request may fall through to the frontier even though one gap in the
/// round-up bin (at most 12.5% larger than the bin floor, see
/// src/cosr/alloc/README.md) could have held it. Each bin is FIFO: the
/// oldest gap of the qualifying bin is handed out. The exact map scan lives
/// on as the test-side reference tests/reference/map_free_list.h.
///
/// Space at or beyond the frontier is implicitly free and unbounded (the
/// paper's arbitrarily large array); gaps touching the frontier shrink it
/// instead of being tracked.
class BinnedFreeIndex {
 public:
  /// 3 mantissa bits: 8 linear bins per power of two.
  static constexpr std::uint32_t kMantissaBits = 3;
  static constexpr std::uint32_t kMantissaValue = 1u << kMantissaBits;
  static constexpr std::uint32_t kMantissaMask = kMantissaValue - 1;
  /// Top-level bitmap: one bit per exponent group, wide enough for the
  /// full 64-bit size range (round-up of 2^64-1 lands in group 62).
  static constexpr std::uint32_t kNumGroups = 64;
  static constexpr std::uint32_t kNumBins = kNumGroups * kMantissaValue;

  BinnedFreeIndex();

  /// Smallest bin index whose floor size is >= `size` (callers quantize
  /// requests with this; the +mantissa overflow carries into the exponent).
  static std::uint32_t SizeToBinRoundUp(std::uint64_t size);
  /// Largest bin index whose floor size is <= `size` (gaps are filed under
  /// this bin, so every gap in bin b has length >= BinFloorSize(b)).
  static std::uint32_t SizeToBinRoundDown(std::uint64_t size);
  /// Smallest gap length that files into bin `bin`.
  static std::uint64_t BinFloorSize(std::uint32_t bin);

  /// Offset of a gap guaranteed to hold `size`, or nullopt when no bin of
  /// floor >= size is populated. O(1): two bitmap probes.
  std::optional<std::uint64_t> FindFit(std::uint64_t size) const;

  /// Claims [offset, offset+size). The range must lie in a tracked gap or
  /// start at/beyond the frontier (which then advances). O(1) when `offset`
  /// is a gap start (the only case the allocators generate) or at/beyond
  /// the frontier; an interior offset falls back to an O(#gaps) probe.
  void Reserve(std::uint64_t offset, std::uint64_t size);

  /// Returns an extent to the free pool, merging adjacent gaps via the
  /// boundary tables. O(1) expected.
  void Release(const Extent& extent);

  std::uint64_t frontier() const { return frontier_; }
  std::uint64_t free_volume() const { return free_volume_; }
  std::size_t gap_count() const { return gap_count_; }

  /// All tracked gaps in ascending offset order (diagnostics/tests).
  std::vector<Extent> Gaps() const;

  /// Verifies bitmap/list/table agreement, bin filing, full coalescing
  /// (no two adjacent gaps) and the frontier rule. Test hook; O(#gaps).
  Status CheckIntegrity() const;

 private:
  static constexpr std::uint32_t kNil = BoundaryNode::kValue;

  struct Gap {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint32_t bin = 0;       // owning bin (round-down of length)
    std::uint32_t prev = kNil;   // intrusive links within the bin list
    std::uint32_t next = kNil;
  };

  /// Links a gap known to be isolated (no free neighbors) at the tail of
  /// its bin.
  void InsertGap(std::uint64_t offset, std::uint64_t length);
  /// Unlinks `index` from its bin, boundary tables, and the pool.
  void RemoveGap(std::uint32_t index);

  std::vector<Gap, HugePageAllocator<Gap>> nodes_;  // advised from 4 MiB
  std::vector<std::uint32_t> free_nodes_;  // recycled pool indices
  std::uint32_t bin_head_[kNumBins];  // kNil-filled by the constructor
  std::uint32_t bin_tail_[kNumBins];
  std::uint64_t group_bitmap_ = 0;              // bit g: group g nonempty
  std::uint8_t bin_bitmap_[kNumGroups] = {};    // bit m: bin (g<<3)|m nonempty
  BoundaryTable by_start_;  // gap offset -> node
  BoundaryTable by_end_;    // gap offset + length -> node
  std::uint64_t frontier_ = 0;
  std::uint64_t free_volume_ = 0;  // tracked gaps only (below frontier)
  std::size_t gap_count_ = 0;
};

}  // namespace cosr

#endif  // COSR_ALLOC_BINNED_FREE_INDEX_H_
