#include "cosr/realloc/packed_memory_array.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cosr/common/random.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/cost_meter.h"
#include "cosr/storage/address_space.h"

namespace cosr {
namespace {

TEST(PmaTest, BasicInsertKeepsOrder) {
  AddressSpace space;
  PackedMemoryArray pma(&space);
  for (const ObjectId id : {50u, 10u, 30u, 20u, 40u}) {
    ASSERT_TRUE(pma.Insert(id, 1).ok());
    ASSERT_TRUE(pma.SelfCheck());
  }
  // Physical order == id order.
  const auto snapshot = space.Snapshot();
  ASSERT_EQ(snapshot.size(), 5u);
  for (std::size_t i = 0; i + 1 < snapshot.size(); ++i) {
    EXPECT_LT(snapshot[i].first, snapshot[i + 1].first);
  }
}

TEST(PmaTest, RejectsNonUniformSizes) {
  AddressSpace space;
  PackedMemoryArray pma(&space);
  EXPECT_EQ(pma.Insert(1, 2).code(), StatusCode::kInvalidArgument);
  PackedMemoryArray::Options options;
  options.slot_size = 8;
  PackedMemoryArray wide(&space);
  EXPECT_EQ(wide.Insert(1, 3).code(), StatusCode::kInvalidArgument);
}

TEST(PmaTest, SlotSizeScalesOffsets) {
  AddressSpace space;
  PackedMemoryArray::Options options;
  options.slot_size = 16;
  PackedMemoryArray pma(&space, options);
  ASSERT_TRUE(pma.Insert(1, 16).ok());
  ASSERT_TRUE(pma.Insert(2, 16).ok());
  EXPECT_EQ(space.extent_of(1).offset % 16, 0u);
  EXPECT_EQ(space.extent_of(1).length, 16u);
  EXPECT_EQ(pma.volume(), 32u);
}

TEST(PmaTest, ErrorCases) {
  AddressSpace space;
  PackedMemoryArray pma(&space);
  ASSERT_TRUE(pma.Insert(1, 1).ok());
  EXPECT_EQ(pma.Insert(1, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(pma.Delete(2).code(), StatusCode::kNotFound);
}

TEST(PmaTest, GrowsAndShrinks) {
  AddressSpace space;
  PackedMemoryArray pma(&space);
  for (ObjectId id = 1; id <= 200; ++id) {
    ASSERT_TRUE(pma.Insert(id, 1).ok());
  }
  const std::uint64_t grown = pma.capacity_slots();
  EXPECT_GE(grown, 200u);
  for (ObjectId id = 1; id <= 190; ++id) {
    ASSERT_TRUE(pma.Delete(id).ok());
  }
  EXPECT_LT(pma.capacity_slots(), grown);
  ASSERT_TRUE(pma.SelfCheck());
  // Footprint tracks the (shrunken) capacity.
  EXPECT_EQ(pma.reserved_footprint(), pma.capacity_slots());
}

TEST(PmaTest, DrainToEmptyReleasesEverything) {
  AddressSpace space;
  PackedMemoryArray pma(&space);
  for (ObjectId id = 1; id <= 40; ++id) {
    ASSERT_TRUE(pma.Insert(id, 1).ok());
  }
  for (ObjectId id = 1; id <= 40; ++id) {
    ASSERT_TRUE(pma.Delete(id).ok());
  }
  EXPECT_EQ(pma.volume(), 0u);
  EXPECT_EQ(pma.reserved_footprint(), 0u);
  EXPECT_EQ(space.object_count(), 0u);
}

class PmaChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PmaChurnTest, OrderAndDensityInvariantsUnderChurn) {
  AddressSpace space;
  PackedMemoryArray pma(&space);
  Rng rng(GetParam());
  std::set<ObjectId> live;
  for (int op = 0; op < 3000; ++op) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      // Random ids across a wide key space: random ranks.
      ObjectId id = rng.UniformRange(1, 1u << 20);
      while (live.count(id) > 0) ++id;
      ASSERT_TRUE(pma.Insert(id, 1).ok());
      live.insert(id);
    } else {
      auto it = live.begin();
      std::advance(it, rng.UniformU64(live.size()));
      ASSERT_TRUE(pma.Delete(*it).ok());
      live.erase(it);
    }
    if (op % 100 == 0) {
      ASSERT_TRUE(pma.SelfCheck()) << "op " << op;
      ASSERT_TRUE(space.SelfCheck());
    }
  }
  ASSERT_TRUE(pma.SelfCheck());
  EXPECT_EQ(space.object_count(), live.size());
  // Footprint stays within a constant factor of the volume (root density
  // bounds: between half the root minimum density and 1 of capacity is
  // occupied).
  if (!live.empty()) {
    EXPECT_LE(pma.reserved_footprint(), 16 * pma.volume());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmaChurnTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(PmaTest, OrderPreservationCostsMoreThanUnordered) {
  // The paper's related-work claim: sparse tables solve reallocation while
  // keeping order, "which makes the problem harder and the reallocation
  // cost correspondingly larger" — amortized Θ(log² n) moves per update
  // vs O(1) for the unordered structures on the same unit workload.
  AddressSpace space;
  PackedMemoryArray pma(&space);
  CostBattery battery = MakeDefaultBattery();
  CostMeter meter(&battery);
  space.AddListener(&meter);
  Rng rng(9);
  std::set<ObjectId> live;
  const int ops = 4000;
  for (int op = 0; op < ops; ++op) {
    ObjectId id = rng.UniformRange(1, 1u << 20);
    while (live.count(id) > 0) ++id;
    ASSERT_TRUE(pma.Insert(id, 1).ok());
    live.insert(id);
  }
  const double moves_per_op =
      static_cast<double>(meter.moves()) / static_cast<double>(ops);
  // Θ(log² n): for n=4000, log² n ≈ 144; expect well above constant and
  // well below linear.
  EXPECT_GE(moves_per_op, 3.0);
  EXPECT_LE(moves_per_op, 400.0);
  space.RemoveListener(&meter);
}

}  // namespace
}  // namespace cosr
