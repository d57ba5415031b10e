// Differential and property tests for the binned free-space index: it is
// driven against the exact map-scan reference (tests/reference/
// map_free_list.h) through identical churn and must agree exactly on gap
// sets, free volume, and frontier (both implement the same Reserve/Release
// set arithmetic; only which fit a query picks differs). The binned
// index's picks are validated against the shared gap set, and its
// bitmap/list/coalescing invariants are checked after every operation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cosr/alloc/binned_free_index.h"
#include "cosr/common/random.h"
#include "reference/map_free_list.h"

namespace cosr {
namespace {

constexpr std::uint64_t kMaxSize = 64 * 1024;  // 64 KiB

// ---------------------------------------------------------------- binning

TEST(BinMappingTest, DenormalSizesGetExactBins) {
  for (std::uint64_t s = 0; s < BinnedFreeIndex::kMantissaValue; ++s) {
    EXPECT_EQ(BinnedFreeIndex::SizeToBinRoundUp(s), s);
    EXPECT_EQ(BinnedFreeIndex::SizeToBinRoundDown(s), s);
    EXPECT_EQ(BinnedFreeIndex::BinFloorSize(static_cast<std::uint32_t>(s)), s);
  }
}

TEST(BinMappingTest, RoundDownFloorBracketsSize) {
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t s = rng.UniformRange(1, std::uint64_t{1} << 48);
    const std::uint32_t down = BinnedFreeIndex::SizeToBinRoundDown(s);
    ASSERT_LE(BinnedFreeIndex::BinFloorSize(down), s);
    ASSERT_GT(BinnedFreeIndex::BinFloorSize(down + 1), s);
  }
}

TEST(BinMappingTest, RoundUpOvershootsByAtMostOneEighth) {
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t s = rng.UniformRange(1, std::uint64_t{1} << 48);
    const std::uint32_t up = BinnedFreeIndex::SizeToBinRoundUp(s);
    const std::uint64_t ceil = BinnedFreeIndex::BinFloorSize(up);
    ASSERT_GE(ceil, s);
    // Bin width in s's decade is 2^(k-3) <= s/8: the internal
    // fragmentation bound documented in src/cosr/alloc/README.md.
    ASSERT_LE(ceil, s + (s >> 3) + 1);
  }
}

TEST(BinMappingTest, BinIndexesAreMonotoneInSize) {
  std::uint32_t prev_up = 0;
  std::uint32_t prev_down = 0;
  for (std::uint64_t s = 1; s < 4096; ++s) {
    const std::uint32_t up = BinnedFreeIndex::SizeToBinRoundUp(s);
    const std::uint32_t down = BinnedFreeIndex::SizeToBinRoundDown(s);
    ASSERT_GE(up, down);
    ASSERT_GE(up, prev_up);
    ASSERT_GE(down, prev_down);
    ASSERT_LT(up, BinnedFreeIndex::kNumBins);
    prev_up = up;
    prev_down = down;
  }
  // The full 64-bit range stays inside the bin table.
  ASSERT_LT(BinnedFreeIndex::SizeToBinRoundUp(~std::uint64_t{0}),
            BinnedFreeIndex::kNumBins);
}

TEST(BinMappingTest, RoundUpCeilingSaturatesAtTopOfRange) {
  // Round-up from sizes above 15*2^60 carries into exponent group 62,
  // whose floor exceeds uint64: BinFloorSize must saturate, not wrap, so
  // the ceiling invariant BinFloorSize(up(s)) >= s holds everywhere.
  for (const std::uint64_t s :
       {~std::uint64_t{0}, (std::uint64_t{15} << 60) + 1,
        std::uint64_t{1} << 63}) {
    ASSERT_GE(BinnedFreeIndex::BinFloorSize(BinnedFreeIndex::SizeToBinRoundUp(s)),
              s);
  }
}

// ----------------------------------------------------------- differential

struct Allocation {
  std::uint64_t offset;
  std::uint64_t size;
};

/// Both must expose identical gap sets after identical mutations.
void ExpectIdenticalState(const MapFreeList& map_list,
                          const BinnedFreeIndex& bin_list) {
  ASSERT_EQ(map_list.frontier(), bin_list.frontier());
  ASSERT_EQ(map_list.free_volume(), bin_list.free_volume());
  ASSERT_EQ(map_list.gap_count(), bin_list.gap_count());
}

/// A fit must start inside a tracked gap that can hold `size` from that
/// offset; `gaps` is ascending by offset.
void ExpectValidFit(const std::vector<Extent>& gaps, std::uint64_t fit,
                    std::uint64_t size) {
  auto it = std::upper_bound(
      gaps.begin(), gaps.end(), fit,
      [](std::uint64_t value, const Extent& g) { return value < g.offset; });
  ASSERT_NE(it, gaps.begin()) << "fit " << fit << " below every gap";
  --it;
  ASSERT_LE(it->offset, fit);
  ASSERT_LE(fit + size, it->end())
      << "fit " << fit << "+" << size << " overflows gap " << ToString(*it);
}

/// Runs 10k mixed operations through both. `binned_drives` selects whose
/// fit decisions shape the placement sequence, so both the exact-fit and
/// the bin-granular placement distributions are exercised.
void RunDifferentialChurn(std::uint64_t seed, bool binned_drives) {
  Rng rng(seed);
  MapFreeList map_list;
  BinnedFreeIndex bin_list;
  std::vector<Allocation> live;

  for (int op = 0; op < 10000; ++op) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const std::uint64_t size = rng.UniformRange(1, kMaxSize);
      const std::vector<Extent> gaps = bin_list.Gaps();

      // The binned pick (when any) must be placeable; and whenever some gap
      // is at least the round-up bin ceiling, a pick is guaranteed.
      const auto bin_fit = bin_list.FindFit(size);
      if (bin_fit.has_value()) {
        ExpectValidFit(gaps, *bin_fit, size);
      } else {
        const std::uint64_t ceiling = BinnedFreeIndex::BinFloorSize(
            BinnedFreeIndex::SizeToBinRoundUp(size));
        for (const Extent& g : gaps) {
          ASSERT_LT(g.length, ceiling)
              << "binned missed gap " << ToString(g) << " for size " << size;
        }
      }
      // The exact picks must also be placeable in the shared gap set.
      const auto map_fit = map_list.FindFirstFit(size);
      if (map_fit.has_value()) ExpectValidFit(gaps, *map_fit, size);
      const auto map_best = map_list.FindBestFit(size);
      ASSERT_EQ(map_best.has_value(), map_fit.has_value());
      if (map_best.has_value()) ExpectValidFit(gaps, *map_best, size);

      const std::uint64_t offset =
          (binned_drives ? bin_fit : map_fit).value_or(bin_list.frontier());
      map_list.Reserve(offset, size);
      bin_list.Reserve(offset, size);
      live.push_back({offset, size});
    } else {
      const std::size_t k =
          static_cast<std::size_t>(rng.UniformU64(live.size()));
      const Allocation a = live[k];
      live[k] = live.back();
      live.pop_back();
      map_list.Release(Extent{a.offset, a.size});
      bin_list.Release(Extent{a.offset, a.size});
    }

    ExpectIdenticalState(map_list, bin_list);
    if (op % 97 == 0 || op == 9999) {
      // Full structural audit: same gaps, and the binned index's bitmaps,
      // intrusive lists, boundary tables, and coalescing all consistent.
      ASSERT_EQ(map_list.Gaps(), bin_list.Gaps()) << "op " << op;
      ASSERT_TRUE(bin_list.CheckIntegrity().ok()) << "op " << op;
    }
  }
  ASSERT_EQ(map_list.Gaps(), bin_list.Gaps());
}

TEST(FreeIndexDifferentialTest, MapDrivenChurnKeepsAccountingIdentical) {
  RunDifferentialChurn(/*seed=*/101, /*binned_drives=*/false);
}

TEST(FreeIndexDifferentialTest, BinnedDrivenChurnKeepsAccountingIdentical) {
  RunDifferentialChurn(/*seed=*/202, /*binned_drives=*/true);
}

// ------------------------------------------------------------- invariants

TEST(BinnedFreeIndexTest, IntegrityHoldsUnderRandomChurn) {
  Rng rng(303);
  BinnedFreeIndex index;
  std::vector<Allocation> live;
  for (int op = 0; op < 4000; ++op) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const std::uint64_t size = rng.UniformRange(1, kMaxSize);
      const std::uint64_t offset =
          index.FindFit(size).value_or(index.frontier());
      index.Reserve(offset, size);
      live.push_back({offset, size});
    } else {
      const std::size_t k =
          static_cast<std::size_t>(rng.UniformU64(live.size()));
      const Allocation a = live[k];
      live[k] = live.back();
      live.pop_back();
      index.Release(Extent{a.offset, a.size});
    }
    const Status s = index.CheckIntegrity();
    ASSERT_TRUE(s.ok()) << "op " << op << ": " << s.message();
  }
}

TEST(BinnedFreeIndexTest, OldestGapServesTheBin) {
  // Three same-bin (length 16) gaps released at offsets 400, 100, 700, so
  // release order differs from address order: the bin is FIFO, so the
  // oldest release (400) serves the next fit, not the lowest address.
  BinnedFreeIndex index;
  index.Reserve(0, 1000);  // frontier past the action
  index.Release(Extent{400, 16});
  index.Release(Extent{100, 16});
  index.Release(Extent{700, 16});
  EXPECT_EQ(index.FindFit(16).value(), 400u);
}

TEST(BinnedFreeIndexTest, CoalescesInEveryReleaseOrder) {
  // Three adjacent blocks released in all six orders must always end as a
  // single gap (or a frontier cut when the last block is involved).
  const std::uint64_t sizes[3] = {8, 24, 40};
  std::vector<int> order = {0, 1, 2};
  std::sort(order.begin(), order.end());
  do {
    BinnedFreeIndex index;
    index.Reserve(0, 8);
    index.Reserve(8, 24);
    index.Reserve(32, 40);
    index.Reserve(72, 16);  // keeps the frontier beyond the action
    std::uint64_t offsets[3] = {0, 8, 32};
    for (int i : order) {
      index.Release(Extent{offsets[i], sizes[i]});
      ASSERT_TRUE(index.CheckIntegrity().ok());
    }
    ASSERT_EQ(index.gap_count(), 1u);
    ASSERT_EQ(index.free_volume(), 72u);
    ASSERT_EQ(index.FindFit(72).value(), 0u);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(BinnedFreeIndexTest, TrailingReleaseCascadesThroughMergedGap) {
  BinnedFreeIndex index;
  index.Reserve(0, 10);
  index.Reserve(10, 10);
  index.Release(Extent{0, 10});
  index.Release(Extent{10, 10});  // merges, then shrinks the frontier to 0
  EXPECT_EQ(index.frontier(), 0u);
  EXPECT_EQ(index.gap_count(), 0u);
  EXPECT_EQ(index.free_volume(), 0u);
  EXPECT_TRUE(index.CheckIntegrity().ok());
}

TEST(BinnedFreeIndexTest, InteriorReserveSplitsGap) {
  BinnedFreeIndex index;
  index.Reserve(0, 100);
  index.Release(Extent{10, 30});
  index.Reserve(20, 5);  // interior of [10, 40): slow-path probe
  EXPECT_EQ(index.gap_count(), 2u);
  EXPECT_EQ(index.free_volume(), 25u);
  EXPECT_TRUE(index.CheckIntegrity().ok());
  const std::vector<Extent> gaps = index.Gaps();
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0], (Extent{10, 10}));
  EXPECT_EQ(gaps[1], (Extent{25, 15}));
}

TEST(BinnedFreeIndexTest, FindFitPrefersSmallestQualifyingBin) {
  BinnedFreeIndex index;
  index.Reserve(0, 2000);
  index.Release(Extent{100, 1024});  // big gap
  index.Release(Extent{1500, 16});   // small gap
  // A 10-byte request lands in the small gap's bin, not the big one.
  EXPECT_EQ(index.FindFit(10).value(), 1500u);
  // A 20-byte request skips the 16-byte bin.
  EXPECT_EQ(index.FindFit(20).value(), 100u);
  EXPECT_FALSE(index.FindFit(1025).has_value());
}

}  // namespace
}  // namespace cosr
