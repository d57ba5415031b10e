#include "cosr/alloc/binned_free_index.h"

#include <algorithm>
#include <limits>

#include "cosr/common/check.h"
#include "cosr/common/math_util.h"

namespace cosr {

namespace {

inline std::uint32_t TrailingZeros64(std::uint64_t v) {
  return static_cast<std::uint32_t>(__builtin_ctzll(v));
}

inline std::uint32_t TrailingZeros8(std::uint8_t v) {
  return static_cast<std::uint32_t>(__builtin_ctz(v));
}

/// The node `table` stores under `key`, or kNil when the key is absent.
inline std::uint32_t NodeAt(const BoundaryTable& table, std::uint64_t key) {
  const std::uint32_t* node = table.Find(key);
  return node == nullptr ? BoundaryNode::kValue : *node;
}

}  // namespace

BinnedFreeIndex::BinnedFreeIndex() {
  std::fill(bin_head_, bin_head_ + kNumBins, kNil);
  std::fill(bin_tail_, bin_tail_ + kNumBins, kNil);
}

std::uint32_t BinnedFreeIndex::SizeToBinRoundUp(std::uint64_t size) {
  if (size < kMantissaValue) {
    // Denormal range: sizes 0..7 get exact bins.
    return static_cast<std::uint32_t>(size);
  }
  const std::uint32_t highest_set_bit =
      static_cast<std::uint32_t>(FloorLog2(size));
  const std::uint32_t mantissa_start = highest_set_bit - kMantissaBits;
  const std::uint32_t exp = mantissa_start + 1;
  std::uint32_t mantissa =
      static_cast<std::uint32_t>(size >> mantissa_start) & kMantissaMask;
  const std::uint64_t low_bits_mask =
      (std::uint64_t{1} << mantissa_start) - 1;
  if ((size & low_bits_mask) != 0) ++mantissa;
  // `+` (not `|`) lets a mantissa overflow carry into the exponent.
  return (exp << kMantissaBits) + mantissa;
}

std::uint32_t BinnedFreeIndex::SizeToBinRoundDown(std::uint64_t size) {
  if (size < kMantissaValue) {
    return static_cast<std::uint32_t>(size);
  }
  const std::uint32_t highest_set_bit =
      static_cast<std::uint32_t>(FloorLog2(size));
  const std::uint32_t mantissa_start = highest_set_bit - kMantissaBits;
  const std::uint32_t exp = mantissa_start + 1;
  const std::uint32_t mantissa =
      static_cast<std::uint32_t>(size >> mantissa_start) & kMantissaMask;
  return (exp << kMantissaBits) | mantissa;
}

std::uint64_t BinnedFreeIndex::BinFloorSize(std::uint32_t bin) {
  const std::uint32_t exp = bin >> kMantissaBits;
  const std::uint32_t mantissa = bin & kMantissaMask;
  if (exp == 0) return mantissa;  // denormal: exact
  // Bins whose floor exceeds the uint64 range (round-up carries from sizes
  // above 15*2^60 land in exponent group 62) saturate instead of wrapping,
  // preserving BinFloorSize(SizeToBinRoundUp(s)) >= s at the top of range.
  if (exp >= 62) return std::numeric_limits<std::uint64_t>::max();
  // Normalized: implicit leading one, mantissa_start = exp - 1.
  return (std::uint64_t{kMantissaValue} | mantissa) << (exp - 1);
}

std::optional<std::uint64_t> BinnedFreeIndex::FindFit(
    std::uint64_t size) const {
  const std::uint32_t min_bin = SizeToBinRoundUp(size);
  const std::uint32_t group = min_bin >> kMantissaBits;
  const std::uint32_t sub = min_bin & kMantissaMask;

  // Bins >= min_bin inside min_bin's own group.
  const std::uint8_t in_group =
      static_cast<std::uint8_t>(bin_bitmap_[group] &
                                static_cast<std::uint8_t>(0xffu << sub));
  std::uint32_t bin;
  if (in_group != 0) {
    bin = (group << kMantissaBits) | TrailingZeros8(in_group);
  } else {
    // All bins in any higher group fit.
    const std::uint64_t higher =
        group + 1 < kNumGroups
            ? group_bitmap_ & ~((std::uint64_t{2} << group) - 1)
            : 0;
    if (higher == 0) return std::nullopt;
    const std::uint32_t g = TrailingZeros64(higher);
    bin = (g << kMantissaBits) | TrailingZeros8(bin_bitmap_[g]);
  }
  return nodes_[bin_head_[bin]].offset;
}

void BinnedFreeIndex::InsertGap(std::uint64_t offset, std::uint64_t length) {
  std::uint32_t index;
  if (!free_nodes_.empty()) {
    index = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Gap& gap = nodes_[index];
  gap.offset = offset;
  gap.length = length;
  gap.bin = SizeToBinRoundDown(length);
  // Append at the tail: FindFit serves the head, the oldest gap.
  gap.prev = bin_tail_[gap.bin];
  gap.next = kNil;
  if (gap.prev != kNil) {
    nodes_[gap.prev].next = index;
  } else {
    bin_head_[gap.bin] = index;
  }
  bin_tail_[gap.bin] = index;
  const std::uint32_t group = gap.bin >> kMantissaBits;
  bin_bitmap_[group] |=
      static_cast<std::uint8_t>(1u << (gap.bin & kMantissaMask));
  group_bitmap_ |= std::uint64_t{1} << group;
  by_start_.Insert(offset, index);
  by_end_.Insert(offset + length, index);
  free_volume_ += length;
  ++gap_count_;
}

void BinnedFreeIndex::RemoveGap(std::uint32_t index) {
  Gap& gap = nodes_[index];
  if (gap.prev != kNil) {
    nodes_[gap.prev].next = gap.next;
  } else {
    bin_head_[gap.bin] = gap.next;
  }
  if (gap.next != kNil) {
    nodes_[gap.next].prev = gap.prev;
  } else {
    bin_tail_[gap.bin] = gap.prev;
  }
  if (bin_head_[gap.bin] == kNil) {
    const std::uint32_t group = gap.bin >> kMantissaBits;
    bin_bitmap_[group] &=
        static_cast<std::uint8_t>(~(1u << (gap.bin & kMantissaMask)));
    if (bin_bitmap_[group] == 0) {
      group_bitmap_ &= ~(std::uint64_t{1} << group);
    }
  }
  by_start_.Erase(gap.offset);
  by_end_.Erase(gap.offset + gap.length);
  free_volume_ -= gap.length;
  --gap_count_;
  free_nodes_.push_back(index);
}

void BinnedFreeIndex::Reserve(std::uint64_t offset, std::uint64_t size) {
  COSR_CHECK(size > 0);
  if (offset >= frontier_) {
    // Allocation in untracked space: any skipped space becomes a gap. The
    // new gap cannot abut a tracked one (no gap ever touches the frontier).
    if (offset > frontier_) InsertGap(frontier_, offset - frontier_);
    frontier_ = offset + size;
    return;
  }
  std::uint32_t found = NodeAt(by_start_, offset);
  if (found == kNil) {
    // Interior reserve (tests/diagnostics only — the allocators always
    // reserve at a gap start): probe every gap for the containing one.
    by_start_.ForEach([&](std::uint64_t start, std::uint32_t index) {
      if (start < offset && offset + size <= start + nodes_[index].length) {
        found = index;
      }
    });
    COSR_CHECK_MSG(found != kNil, "reserve outside any gap");
  }
  const std::uint64_t gap_offset = nodes_[found].offset;
  const std::uint64_t gap_length = nodes_[found].length;
  RemoveGap(found);
  COSR_CHECK_LE(offset + size, gap_offset + gap_length);
  if (offset > gap_offset) InsertGap(gap_offset, offset - gap_offset);
  const std::uint64_t tail_offset = offset + size;
  const std::uint64_t gap_end = gap_offset + gap_length;
  if (gap_end > tail_offset) InsertGap(tail_offset, gap_end - tail_offset);
}

void BinnedFreeIndex::Release(const Extent& extent) {
  COSR_CHECK(extent.length > 0);
  COSR_CHECK_LE(extent.end(), frontier_);
  std::uint64_t offset = extent.offset;
  std::uint64_t end = extent.end();

  // Merge with the following gap if adjacent.
  const std::uint32_t next = NodeAt(by_start_, end);
  if (next != kNil) {
    end = nodes_[next].offset + nodes_[next].length;
    RemoveGap(next);
  }
  // Merge with the preceding gap if adjacent.
  const std::uint32_t prev = NodeAt(by_end_, offset);
  if (prev != kNil) {
    offset = nodes_[prev].offset;
    RemoveGap(prev);
  }
  if (end == frontier_) {
    frontier_ = offset;  // trailing gap: shrink the frontier
    return;
  }
  InsertGap(offset, end - offset);
}

std::vector<Extent> BinnedFreeIndex::Gaps() const {
  std::vector<Extent> gaps;
  gaps.reserve(gap_count_);
  by_start_.ForEach([&](std::uint64_t start, std::uint32_t index) {
    gaps.push_back(Extent{start, nodes_[index].length});
  });
  std::sort(gaps.begin(), gaps.end(),
            [](const Extent& a, const Extent& b) { return a.offset < b.offset; });
  return gaps;
}

Status BinnedFreeIndex::CheckIntegrity() const {
  std::uint64_t volume = 0;
  std::size_t listed = 0;
  for (std::uint32_t bin = 0; bin < kNumBins; ++bin) {
    const std::uint32_t group = bin >> kMantissaBits;
    const bool bit_set =
        (bin_bitmap_[group] >> (bin & kMantissaMask)) & 1u;
    if (bit_set != (bin_head_[bin] != kNil)) {
      return Status::Internal("bin bitmap disagrees with bin list");
    }
    std::uint32_t prev = kNil;
    for (std::uint32_t i = bin_head_[bin]; i != kNil; i = nodes_[i].next) {
      const Gap& gap = nodes_[i];
      if (gap.prev != prev) return Status::Internal("broken bin list links");
      if (gap.bin != bin) return Status::Internal("gap filed in wrong bin");
      if (SizeToBinRoundDown(gap.length) != bin) {
        return Status::Internal("gap bin does not match its length");
      }
      const std::uint64_t gap_end = gap.offset + gap.length;
      if (gap_end > frontier_) {
        return Status::Internal("gap beyond the frontier");
      }
      if (gap_end == frontier_) {
        return Status::Internal("gap touches the frontier");
      }
      if (NodeAt(by_start_, gap.offset) != i || NodeAt(by_end_, gap_end) != i) {
        return Status::Internal("boundary tables disagree with gap");
      }
      if (NodeAt(by_start_, gap_end) != kNil ||
          NodeAt(by_end_, gap.offset) != kNil) {
        return Status::Internal("adjacent gaps left uncoalesced");
      }
      volume += gap.length;
      ++listed;
      prev = i;
    }
    if (bin_tail_[bin] != prev) return Status::Internal("stale bin tail");
  }
  for (std::uint32_t group = 0; group < kNumGroups; ++group) {
    if (((group_bitmap_ >> group) & 1u) != (bin_bitmap_[group] != 0)) {
      return Status::Internal("group bitmap disagrees with bin bitmap");
    }
  }
  if (listed != gap_count_ || listed != by_start_.size() ||
      listed != by_end_.size()) {
    return Status::Internal("gap count disagrees across indexes");
  }
  if (volume != free_volume_) {
    return Status::Internal("free volume accounting mismatch");
  }
  return Status::Ok();
}

}  // namespace cosr
