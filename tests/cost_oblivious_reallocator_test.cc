#include "cosr/storage/address_space.h"
#include "cosr/core/cost_oblivious_reallocator.h"

#include <gtest/gtest.h>

#include <vector>

#include "cosr/common/random.h"
#include "cosr/core/size_class.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

CostObliviousReallocator::Options WithEpsilon(double eps) {
  CostObliviousReallocator::Options options;
  options.epsilon = eps;
  return options;
}

TEST(CostObliviousTest, FirstInsertCreatesRegion) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.5));
  ASSERT_TRUE(realloc.Insert(1, 12).ok());
  EXPECT_EQ(realloc.volume(), 12u);
  EXPECT_EQ(realloc.max_size_class(), SizeClassOf(12));
  // New largest class: payload w, buffer floor(eps*w) = 6.
  const Region& r = realloc.region(SizeClassOf(12));
  EXPECT_EQ(r.payload_capacity, 12u);
  EXPECT_EQ(r.buffer_capacity, 6u);
  EXPECT_EQ(space.extent_of(1).offset, r.payload_start);
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(CostObliviousTest, SecondInsertGoesToBuffer) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.5));
  ASSERT_TRUE(realloc.Insert(1, 100).ok());  // buffer capacity 50
  ASSERT_TRUE(realloc.Insert(2, 10).ok());   // class 4 <= class 7: buffered
  const Region& r = realloc.region(SizeClassOf(100));
  EXPECT_EQ(r.buffer_used, 10u);
  ASSERT_EQ(r.buffer_entries.size(), 1u);
  EXPECT_EQ(r.buffer_entries[0].id, 2u);
  EXPECT_EQ(space.extent_of(2).offset, r.buffer_start());
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(CostObliviousTest, BufferOverflowTriggersFlush) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.5));
  ASSERT_TRUE(realloc.Insert(1, 100).ok());
  // Fill the 50-wide buffer, then overflow it.
  ASSERT_TRUE(realloc.Insert(2, 30).ok());
  ASSERT_TRUE(realloc.Insert(3, 20).ok());
  EXPECT_EQ(realloc.flush_count(), 0u);
  ASSERT_TRUE(realloc.Insert(4, 10).ok());
  EXPECT_EQ(realloc.flush_count(), 1u);
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
  // After the flush the buffers of flushed classes are empty.
  for (int i = 1; i <= realloc.max_size_class(); ++i) {
    EXPECT_EQ(realloc.region(i).buffer_used, 0u) << "class " << i;
  }
}

TEST(CostObliviousTest, FlushMovesBufferedObjectsToTheirPayloads) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.5));
  ASSERT_TRUE(realloc.Insert(1, 100).ok());
  ASSERT_TRUE(realloc.Insert(2, 30).ok());  // class 5
  ASSERT_TRUE(realloc.Insert(3, 20).ok());  // class 5
  ASSERT_TRUE(realloc.Insert(4, 10).ok());  // class 4, triggers flush
  // Objects 2 and 3 now live in the class-5 payload, object 4 in class 4.
  const Region& r5 = realloc.region(5);
  EXPECT_EQ(r5.payload_capacity, 50u);
  EXPECT_EQ(r5.payload_count(), 2u);
  const Region& r4 = realloc.region(4);
  EXPECT_EQ(r4.payload_capacity, 10u);
  ASSERT_EQ(r4.payload_count(), 1u);
  EXPECT_EQ(r4.payload_objects[0], 4u);
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(CostObliviousTest, DeleteFromBufferLeavesDummy) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.5));
  ASSERT_TRUE(realloc.Insert(1, 100).ok());
  ASSERT_TRUE(realloc.Insert(2, 10).ok());
  ASSERT_TRUE(realloc.Delete(2).ok());
  const Region& r = realloc.region(SizeClassOf(100));
  // Space stays consumed by the dummy record until the next flush.
  EXPECT_EQ(r.buffer_used, 10u);
  ASSERT_EQ(r.buffer_entries.size(), 1u);
  EXPECT_FALSE(r.buffer_entries[0].live());
  EXPECT_EQ(realloc.volume(), 100u);
  EXPECT_FALSE(space.contains(2));
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(CostObliviousTest, DeleteFromPayloadAddsDummyRecord) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.5));
  ASSERT_TRUE(realloc.Insert(1, 100).ok());
  ASSERT_TRUE(realloc.Insert(2, 64).ok());  // same class 7, buffered? no:
  // class of 64 is 7, class of 100 is 7; buffer capacity 50 < 64, so this
  // triggers a flush and both live in the payload.
  ASSERT_TRUE(realloc.Delete(1).ok());
  const int cls = SizeClassOf(100);
  const Region& r = realloc.region(cls);
  // The dummy consumes buffer space somewhere at class >= 7.
  std::uint64_t dummy_volume = 0;
  for (int i = cls; i <= realloc.max_size_class(); ++i) {
    for (const BufferEntry& e : realloc.region(i).buffer_entries) {
      if (!e.live()) dummy_volume += e.size;
    }
  }
  (void)r;
  EXPECT_GT(dummy_volume + realloc.flush_count(), 0u);  // dummy or flush
  EXPECT_EQ(realloc.volume(), 64u);
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(CostObliviousTest, InsertErrors) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.25));
  EXPECT_EQ(realloc.Insert(1, 0).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(realloc.Insert(1, 8).ok());
  EXPECT_EQ(realloc.Insert(1, 8).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(realloc.Delete(42).code(), StatusCode::kNotFound);
  EXPECT_EQ(realloc.InsertExisting(77).code(), StatusCode::kNotFound);
}

TEST(CostObliviousTest, GrowShrinkKeepsFootprintTight) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.25));
  Trace trace = MakeGrowShrinkTrace({.cycles = 3,
                                     .peak_volume = 1 << 15,
                                     .shrink_fraction = 0.2,
                                     .max_size = 512,
                                     .seed = 17});
  CostBattery battery = MakeDefaultBattery();
  RunOptions options;
  options.min_volume_for_ratio = 4096;
  options.check_invariants_every = 200;
  RunReport report = RunTrace(realloc, space, trace, battery, options);
  // Lemma 2.5: footprint <= (1 + O(eps)) V. With eps' = eps = 0.25 the
  // constant works out well below 2.
  EXPECT_LE(report.max_footprint_ratio, 1.0 + 4 * 0.25);
}

TEST(CostObliviousTest, SmallEpsilonTightensFootprint) {
  CostBattery battery = MakeDefaultBattery();
  Trace trace = MakeChurnTrace({.operations = 6000,
                                .target_live_volume = 1 << 16,
                                .max_size = 1024,
                                .seed = 23});
  double ratios[2];
  const double epsilons[2] = {0.5, 0.0625};
  for (int i = 0; i < 2; ++i) {
    AddressSpace space;
    CostObliviousReallocator realloc(&space, WithEpsilon(epsilons[i]));
    RunOptions options;
    options.min_volume_for_ratio = 1 << 14;
    RunReport report = RunTrace(realloc, space, trace, battery, options);
    ratios[i] = report.max_footprint_ratio;
  }
  EXPECT_LT(ratios[1], ratios[0]);           // smaller eps => tighter
  EXPECT_LE(ratios[1], 1.0 + 6 * 0.0625);    // 1 + O(eps)
}

TEST(CostObliviousTest, ObjectsNeverLostAcrossFlushes) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.25));
  Rng rng(31);
  std::vector<std::pair<ObjectId, std::uint64_t>> live;
  ObjectId next = 1;
  for (int op = 0; op < 2000; ++op) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      const std::uint64_t size = rng.UniformRange(1, 200);
      ASSERT_TRUE(realloc.Insert(next, size).ok());
      live.emplace_back(next++, size);
    } else {
      const std::size_t k = rng.UniformU64(live.size());
      ASSERT_TRUE(realloc.Delete(live[k].first).ok());
      live[k] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(space.object_count(), live.size());
  for (const auto& [id, size] : live) {
    ASSERT_TRUE(space.contains(id)) << "object " << id;
    EXPECT_EQ(space.extent_of(id).length, size);
  }
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(CostObliviousTest, BufferEntriesRespectClassCeiling) {
  // Invariant 2.2(4): buffer i stores only classes <= i. Exercise with many
  // mixed sizes, then inspect every buffer entry.
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.25));
  Rng rng(37);
  ObjectId next = 1;
  for (int op = 0; op < 500; ++op) {
    ASSERT_TRUE(realloc.Insert(next++, rng.UniformRange(1, 2000)).ok());
  }
  for (int i = 1; i <= realloc.max_size_class(); ++i) {
    for (const BufferEntry& e : realloc.region(i).buffer_entries) {
      EXPECT_LE(e.size_class, i);
    }
  }
}

TEST(CostObliviousTest, EveryFlushLeavesExactCapacities) {
  // Invariant 2.4: after a flush of class i, payload capacity == V(i) and
  // buffer capacity == floor(eps*V(i)).
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.5));
  ASSERT_TRUE(realloc.Insert(1, 64).ok());
  ASSERT_TRUE(realloc.Insert(2, 64).ok());   // overflows buffer: flush
  ASSERT_GE(realloc.flush_count(), 1u);
  const int cls = SizeClassOf(64);
  const Region& r = realloc.region(cls);
  EXPECT_EQ(r.payload_capacity, realloc.volume_in_class(cls));
  EXPECT_EQ(r.buffer_capacity, realloc.volume_in_class(cls) / 2);
}

TEST(CostObliviousTest, ExtractToRemovesAndMoves) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.25));
  ASSERT_TRUE(realloc.Insert(1, 50).ok());
  ASSERT_TRUE(realloc.Insert(2, 10).ok());
  ASSERT_TRUE(realloc.ExtractTo(2, 10000).ok());
  EXPECT_FALSE(realloc.contains(2));
  ASSERT_TRUE(space.contains(2));  // still placed, outside the structure
  EXPECT_EQ(space.extent_of(2).offset, 10000u);
  EXPECT_EQ(realloc.volume(), 50u);
}

TEST(CostObliviousTest, InsertExistingAdoptsObject) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.25));
  space.Place(9, Extent{50000, 24});
  ASSERT_TRUE(realloc.InsertExisting(9).ok());
  EXPECT_TRUE(realloc.contains(9));
  EXPECT_EQ(realloc.volume(), 24u);
  // The object physically moved into the structure.
  EXPECT_LT(space.extent_of(9).offset, 50000u);
  ASSERT_EQ(realloc.CheckInvariants().ToString(), "Ok");
}

TEST(CostObliviousTest, FlushCountGrowsSlowly) {
  // Buffers absorb Theta(eps * V) updates between flushes, so flushes are
  // far rarer than operations once the structure is warm.
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.5));
  Trace trace = MakeChurnTrace({.operations = 8000,
                                .target_live_volume = 1 << 16,
                                .min_size = 1,
                                .max_size = 64,
                                .seed = 41});
  CostBattery battery = MakeDefaultBattery();
  RunReport report = RunTrace(realloc, space, trace, battery);
  EXPECT_LT(report.flushes, report.operations / 10);
}

TEST(CostObliviousTest, DeltaTracksLargestObject) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space, WithEpsilon(0.25));
  ASSERT_TRUE(realloc.Insert(1, 3).ok());
  EXPECT_EQ(realloc.delta(), 3u);
  ASSERT_TRUE(realloc.Insert(2, 500).ok());
  EXPECT_EQ(realloc.delta(), 500u);
  ASSERT_TRUE(realloc.Delete(2).ok());
  EXPECT_EQ(realloc.delta(), 500u);  // a running maximum: ∆ never shrinks
}

}  // namespace
}  // namespace cosr
