#include "cosr/storage/address_space.h"
#include "cosr/metrics/latency_profile.h"

#include <gtest/gtest.h>

#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

TEST(LatencyProfileTest, RecordsPerOpCosts) {
  auto linear = MakeLinearCost();
  LatencyProfile profile(linear.get());
  AddressSpace space;
  space.AddListener(&profile);

  profile.BeginOp();
  space.Place(1, Extent{0, 10});  // op cost 10
  profile.BeginOp();
  space.Place(2, Extent{100, 5});
  space.Move(1, Extent{200, 10});  // op cost 15
  profile.BeginOp();               // closes op 2
  space.Place(3, Extent{300, 1});  // op cost 1
  profile.BeginOp();               // closes op 3

  ASSERT_EQ(profile.op_count(), 3u);
  EXPECT_DOUBLE_EQ(profile.max(), 15.0);
  EXPECT_DOUBLE_EQ(profile.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(profile.Percentile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(profile.Percentile(1.0), 15.0);
  EXPECT_NEAR(profile.mean(), 26.0 / 3.0, 1e-9);
}

TEST(LatencyProfileTest, EmptyProfileIsZero) {
  auto constant = MakeConstantCost();
  LatencyProfile profile(constant.get());
  EXPECT_DOUBLE_EQ(profile.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(profile.max(), 0.0);
  EXPECT_DOUBLE_EQ(profile.mean(), 0.0);
  EXPECT_EQ(profile.op_count(), 0u);
}

TEST(LatencyProfileTest, PercentileEdgeCases) {
  auto linear = MakeLinearCost();
  LatencyProfile profile(linear.get());
  AddressSpace space;
  space.AddListener(&profile);

  profile.BeginOp();
  space.Place(1, Extent{0, 42});  // the only op: cost 42
  profile.BeginOp();

  ASSERT_EQ(profile.op_count(), 1u);
  // With one sample every quantile is that sample, and out-of-range
  // quantiles clamp into [0, 1] rather than indexing out of bounds.
  EXPECT_DOUBLE_EQ(profile.Percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(profile.Percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(profile.Percentile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(profile.Percentile(-3.0), 42.0);
  EXPECT_DOUBLE_EQ(profile.Percentile(7.0), 42.0);
}

TEST(LatencyProfileTest, ActivityOutsideOpsIgnored) {
  auto linear = MakeLinearCost();
  LatencyProfile profile(linear.get());
  AddressSpace space;
  space.AddListener(&profile);
  space.Place(1, Extent{0, 100});  // before any BeginOp: untracked
  profile.BeginOp();
  space.Place(2, Extent{200, 7});
  profile.BeginOp();
  ASSERT_EQ(profile.op_count(), 1u);
  EXPECT_DOUBLE_EQ(profile.max(), 7.0);
}

TEST(LatencyProfileTest, DeamortizationFlattensTheTail) {
  // The Lemma 3.6 story as a latency distribution: same workload, same
  // median-ish body, far lighter tail for the deamortized variant.
  auto linear = MakeLinearCost();
  Trace trace = MakeChurnTrace({.operations = 4000,
                                .target_live_volume = 1 << 15,
                                .max_size = 512,
                                .seed = 77});
  auto run = [&](Reallocator& realloc, LatencyProfile& profile) {
    for (const Request& r : trace.requests()) {
      profile.BeginOp();
      if (r.type == Request::Type::kInsert) {
        ASSERT_TRUE(realloc.Insert(r.id, r.size).ok());
      } else {
        ASSERT_TRUE(realloc.Delete(r.id).ok());
      }
    }
    profile.BeginOp();
  };

  AddressSpace amortized_space;
  LatencyProfile amortized_profile(linear.get());
  amortized_space.AddListener(&amortized_profile);
  CostObliviousReallocator amortized(&amortized_space);
  run(amortized, amortized_profile);

  CheckpointManager manager;
  AddressSpace deamortized_space(&manager);
  LatencyProfile deamortized_profile(linear.get());
  deamortized_space.AddListener(&deamortized_profile);
  DeamortizedReallocator deamortized(&deamortized_space);
  run(deamortized, deamortized_profile);

  EXPECT_LT(deamortized_profile.max(), amortized_profile.max());
}

}  // namespace
}  // namespace cosr
