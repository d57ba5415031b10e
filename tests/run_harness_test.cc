#include "cosr/storage/address_space.h"
#include "cosr/metrics/run_harness.h"

#include <gtest/gtest.h>

#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/realloc/compacting_oracle.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

TEST(RunHarnessTest, CountsOperations) {
  AddressSpace space;
  CompactingOracle oracle(&space);
  Trace trace;
  trace.AddInsert(1, 10);
  trace.AddInsert(2, 20);
  trace.AddDelete(1);
  CostBattery battery = MakeDefaultBattery();
  RunReport report = RunTrace(oracle, space, trace, battery);
  EXPECT_EQ(report.operations, 3u);
  EXPECT_EQ(report.inserts, 2u);
  EXPECT_EQ(report.deletes, 1u);
  EXPECT_EQ(report.algorithm, "oracle");
}

TEST(RunHarnessTest, OracleFootprintRatioIsOne) {
  AddressSpace space;
  CompactingOracle oracle(&space);
  Trace trace = MakeChurnTrace({.operations = 1000,
                                .target_live_volume = 1 << 13,
                                .max_size = 128,
                                .seed = 2});
  CostBattery battery = MakeDefaultBattery();
  RunOptions options;
  options.min_volume_for_ratio = 1024;
  RunReport report = RunTrace(oracle, space, trace, battery, options);
  EXPECT_DOUBLE_EQ(report.max_footprint_ratio, 1.0);
  EXPECT_DOUBLE_EQ(report.avg_footprint_ratio, 1.0);
}

TEST(RunHarnessTest, FunctionReportsPopulated) {
  AddressSpace space;
  CompactingOracle oracle(&space);
  Trace trace;
  trace.AddInsert(1, 16);
  CostBattery battery = MakeDefaultBattery();
  RunReport report = RunTrace(oracle, space, trace, battery);
  ASSERT_EQ(report.functions.size(), battery.size());
  const FunctionReport* linear = report.function("linear");
  ASSERT_NE(linear, nullptr);
  EXPECT_DOUBLE_EQ(linear->allocation_cost, 16.0);
  EXPECT_DOUBLE_EQ(linear->cost_ratio, 1.0);
  EXPECT_EQ(report.function("no-such"), nullptr);
}

TEST(RunHarnessTest, TimelineSampling) {
  AddressSpace space;
  CompactingOracle oracle(&space);
  Trace trace = MakeChurnTrace(
      {.operations = 100, .target_live_volume = 1 << 10, .max_size = 64});
  CostBattery battery = MakeDefaultBattery();
  RunOptions options;
  options.timeline_every = 10;
  RunReport report = RunTrace(oracle, space, trace, battery, options);
  EXPECT_EQ(report.timeline.size(), 10u);
  EXPECT_EQ(report.timeline.front().operation, 10u);
  for (const TimelinePoint& p : report.timeline) {
    EXPECT_GE(p.reserved_footprint, 0u);
    EXPECT_EQ(p.reserved_footprint, p.volume);  // oracle property
  }
}

TEST(RunHarnessTest, FlushesReportedForCoreVariant) {
  AddressSpace space;
  CostObliviousReallocator realloc(&space);
  Trace trace = MakeChurnTrace({.operations = 2000,
                                .target_live_volume = 1 << 13,
                                .max_size = 128,
                                .seed = 3});
  CostBattery battery = MakeDefaultBattery();
  RunOptions options;
  options.check_invariants_every = 500;
  RunReport report = RunTrace(realloc, space, trace, battery, options);
  EXPECT_GT(report.flushes, 0u);
  EXPECT_GT(report.moves, 0u);
  EXPECT_GT(report.bytes_moved, 0u);
}

TEST(RunHarnessTest, CheckpointsPerFlushReportedForDeamortized) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  DeamortizedReallocator realloc(&space);
  Trace trace = MakeChurnTrace({.operations = 2000,
                                .target_live_volume = 1 << 13,
                                .max_size = 128,
                                .seed = 3});
  RunReport report = RunTrace(realloc, space, trace, MakeDefaultBattery());
  EXPECT_GT(report.flushes, 0u);
  EXPECT_GT(report.max_checkpoints_per_flush, 0u);
  EXPECT_EQ(report.max_checkpoints_per_flush,
            realloc.max_checkpoints_per_flush());
}

}  // namespace
}  // namespace cosr
