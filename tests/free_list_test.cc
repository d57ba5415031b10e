// Free-list contract of BinnedFreeIndex, the free space behind the
// first-fit and best-fit allocators: frontier advance and shrink, gap
// creation, coalescing, splitting, and which gap a fit query serves.

#include "cosr/alloc/binned_free_index.h"

#include <gtest/gtest.h>

namespace cosr {
namespace {

TEST(FreeListContractTest, StartsEmpty) {
  BinnedFreeIndex list;
  EXPECT_EQ(list.frontier(), 0u);
  EXPECT_EQ(list.free_volume(), 0u);
  EXPECT_FALSE(list.FindFit(1).has_value());
}

TEST(FreeListContractTest, ReserveAtFrontierAdvances) {
  BinnedFreeIndex list;
  list.Reserve(0, 10);
  EXPECT_EQ(list.frontier(), 10u);
  list.Reserve(10, 5);
  EXPECT_EQ(list.frontier(), 15u);
  EXPECT_EQ(list.gap_count(), 0u);
}

TEST(FreeListContractTest, ReleaseCreatesGap) {
  BinnedFreeIndex list;
  list.Reserve(0, 10);
  list.Reserve(10, 10);
  list.Release(Extent{0, 10});
  EXPECT_EQ(list.gap_count(), 1u);
  EXPECT_EQ(list.free_volume(), 10u);
  EXPECT_EQ(list.FindFit(10).value(), 0u);
  EXPECT_FALSE(list.FindFit(11).has_value());
}

TEST(FreeListContractTest, TrailingReleaseShrinksFrontier) {
  BinnedFreeIndex list;
  list.Reserve(0, 10);
  list.Reserve(10, 10);
  list.Release(Extent{10, 10});
  EXPECT_EQ(list.frontier(), 10u);
  EXPECT_EQ(list.gap_count(), 0u);
}

TEST(FreeListContractTest, CoalescesWithBothNeighbors) {
  BinnedFreeIndex list;
  list.Reserve(0, 30);
  list.Reserve(30, 10);  // keeps frontier past the action
  list.Release(Extent{0, 10});
  list.Release(Extent{20, 10});
  EXPECT_EQ(list.gap_count(), 2u);
  list.Release(Extent{10, 10});  // bridges the two gaps
  EXPECT_EQ(list.gap_count(), 1u);
  EXPECT_EQ(list.FindFit(30).value(), 0u);
}

TEST(FreeListContractTest, ReleaseThenShrinkCascades) {
  BinnedFreeIndex list;
  list.Reserve(0, 10);
  list.Reserve(10, 10);
  list.Release(Extent{0, 10});
  list.Release(Extent{10, 10});  // merges with gap AND touches frontier
  EXPECT_EQ(list.frontier(), 0u);
  EXPECT_EQ(list.gap_count(), 0u);
  EXPECT_EQ(list.free_volume(), 0u);
}

TEST(FreeListContractTest, SameBinGapsServeInReleaseOrder) {
  BinnedFreeIndex list;
  list.Reserve(0, 100);
  list.Release(Extent{10, 20});
  list.Release(Extent{50, 20});
  EXPECT_EQ(list.FindFit(5).value(), 10u);
  EXPECT_EQ(list.FindFit(20).value(), 10u);
  list.Reserve(10, 20);
  EXPECT_EQ(list.FindFit(20).value(), 50u);
}

TEST(FreeListContractTest, FitPrefersTightestBin) {
  BinnedFreeIndex list;
  list.Reserve(0, 100);
  list.Release(Extent{10, 30});  // 30-wide gap
  list.Release(Extent{60, 10});  // 10-wide gap
  EXPECT_EQ(list.FindFit(5).value(), 60u);
  EXPECT_EQ(list.FindFit(15).value(), 10u);
  EXPECT_FALSE(list.FindFit(31).has_value());
}

TEST(FreeListContractTest, PartialReserveSplitsGap) {
  BinnedFreeIndex list;
  list.Reserve(0, 100);
  list.Release(Extent{10, 30});
  list.Reserve(20, 5);  // middle of the gap
  EXPECT_EQ(list.gap_count(), 2u);
  EXPECT_EQ(list.FindFit(10).value(), 10u);   // [10,20)
  EXPECT_EQ(list.FindFit(11).value(), 25u);   // [25,40)
  EXPECT_EQ(list.free_volume(), 25u);
}

TEST(FreeListContractTest, ReserveBeyondFrontierLeavesGap) {
  BinnedFreeIndex list;
  list.Reserve(10, 5);  // skips [0,10)
  EXPECT_EQ(list.frontier(), 15u);
  EXPECT_EQ(list.FindFit(10).value(), 0u);
}

}  // namespace
}  // namespace cosr
