// Crash-recovery fuzz gate: thousands of deterministically injected crash
// points (record-boundary cuts, torn final records, mid-batch tears)
// across scenarios x algorithms x facade shapes, every one of which must
// recover the last-checkpointed state byte for byte. This is the CI gate
// for the durability tier; the bench variant reuses the same harness at
// larger sizes.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "cosr/durability/crash_fuzz.h"
#include "cosr/durability/group_commit.h"

namespace cosr {
namespace {

struct FuzzConfig {
  std::string scenario;
  std::string algorithm;
  std::uint32_t shard_count;
  bool concurrent;
  bool batched = false;
  bool rebalance = false;
  GroupCommitPolicy group_commit;
  std::string label;
};

std::vector<FuzzConfig> Configs() {
  std::vector<FuzzConfig> configs;
  const std::vector<std::string> scenarios = {"steady-churn", "ramp-collapse",
                                              "bimodal-churn"};
  const std::vector<std::string> algorithms = {"checkpointed", "deamortized"};
  for (const std::string& scenario : scenarios) {
    for (const std::string& algorithm : algorithms) {
      for (const std::uint32_t shards : {1u, 4u}) {
        FuzzConfig config;
        config.scenario = scenario;
        config.algorithm = algorithm;
        config.shard_count = shards;
        config.concurrent = false;
        config.label = scenario + "/" + algorithm + "/sharded-k" +
                       std::to_string(shards);
        configs.push_back(config);
      }
    }
    // One concurrent (worker-thread) configuration per scenario: per-shard
    // logs on private roots, checkpoint hooks firing on claiming workers.
    FuzzConfig config;
    config.scenario = scenario;
    config.algorithm = "checkpointed";
    config.shard_count = 4;
    config.concurrent = true;
    config.label = scenario + "/checkpointed/concurrent-k4";
    configs.push_back(config);
  }
  // One batched-submission cell: the same durability wiring fuzzed with
  // the trace delivered through SubmitMany over the lock-free remote
  // queues instead of per-op synchronous calls.
  FuzzConfig batched;
  batched.scenario = "steady-churn";
  batched.algorithm = "checkpointed";
  batched.shard_count = 4;
  batched.concurrent = true;
  batched.batched = true;
  batched.label = "steady-churn/checkpointed/concurrent-k4-batched";
  configs.push_back(batched);
  // Migration-active cells: crash points land while the rebalancer's
  // cross-shard migrations (Delete journaled on the source shard's log,
  // Place on the destination's) interleave with ordinary churn. One
  // synchronous cell per algorithm (the threaded driver never migrates).
  for (const std::string algorithm : {"checkpointed", "deamortized"}) {
    FuzzConfig rebalance;
    rebalance.scenario = "zipf-churn";
    rebalance.algorithm = algorithm;
    rebalance.shard_count = 4;
    rebalance.concurrent = false;
    rebalance.rebalance = true;
    rebalance.label = "zipf-churn/" + algorithm + "/sharded-k4-rebalance";
    configs.push_back(rebalance);
  }
  // Group-commit cells: coalesced syncs leave unsynced checkpoint records
  // on the crash surface (legal landing points), and compaction adds the
  // mid-rewrite surface — cuts inside retired pre-compaction streams and
  // inside compacted snapshot prefixes. One coalescing-only cell, one
  // coalescing+compaction cell, and one concurrent coalescing cell.
  {
    FuzzConfig gc;
    gc.scenario = "steady-churn";
    gc.algorithm = "checkpointed";
    gc.shard_count = 4;
    gc.concurrent = false;
    gc.group_commit.max_unsynced_checkpoints = 4;
    gc.label = "steady-churn/checkpointed/sharded-k4-gc4";
    configs.push_back(gc);
  }
  {
    FuzzConfig gc;
    gc.scenario = "ramp-collapse";
    gc.algorithm = "deamortized";
    gc.shard_count = 4;
    gc.concurrent = false;
    gc.group_commit.max_unsynced_checkpoints = 8;
    gc.group_commit.compaction_threshold_bytes = 2048;
    gc.label = "ramp-collapse/deamortized/sharded-k4-gc8-compact";
    configs.push_back(gc);
  }
  {
    FuzzConfig gc;
    gc.scenario = "steady-churn";
    gc.algorithm = "checkpointed";
    gc.shard_count = 4;
    gc.concurrent = true;
    gc.group_commit.max_unsynced_checkpoints = 4;
    gc.group_commit.compaction_threshold_bytes = 4096;
    gc.label = "steady-churn/checkpointed/concurrent-k4-gc4-compact";
    configs.push_back(gc);
  }
  return configs;
}

/// Crash points, checkpoints and verified objects summed over the cells
/// one test ran.
struct FuzzTotals {
  std::size_t points = 0;
  std::size_t checkpoints = 0;
  std::size_t objects = 0;
};

/// Fuzzes every cell whose facade starts worker threads (`threaded`) or
/// every cell that runs on the calling thread alone, and sums what they
/// covered.
FuzzTotals RunCells(bool threaded) {
  FuzzTotals totals;
  for (const FuzzConfig& config : Configs()) {
    if (config.concurrent != threaded) continue;
    CrashFuzzOptions options;
    options.scenario = config.scenario;
    options.algorithm = config.algorithm;
    options.shard_count = config.shard_count;
    options.concurrent = config.concurrent;
    options.batched_submission = config.batched;
    options.rebalance = config.rebalance;
    options.group_commit = config.group_commit;
    options.seed = 7;
    CrashFuzzReport report;
    const Status status = RunCrashFuzz(options, &report);
    EXPECT_TRUE(status.ok()) << config.label << ": " << status.ToString();
    if (!status.ok()) continue;
    EXPECT_GT(report.crash_points, 0u) << config.label;
    EXPECT_GT(report.checkpoints, 0u) << config.label;
    EXPECT_GT(report.log_records, 0u) << config.label;
    // Policy cells must exercise what they claim: coalescing cells really
    // coalesce (fewer syncs than checkpoints), compacting cells really
    // commit rewrites and fuzz the retired pre-compaction streams.
    if (!config.group_commit.sync_every_checkpoint()) {
      EXPECT_LT(report.syncs, report.checkpoints) << config.label;
    }
    if (config.group_commit.compaction_threshold_bytes > 0) {
      EXPECT_GT(report.compactions, 0u) << config.label;
      EXPECT_GT(report.pre_compaction_points, 0u) << config.label;
    }
    // The migration cells must actually migrate, or the
    // "crash-consistent under migration" claim is vacuous.
    if (config.rebalance) {
      EXPECT_GT(report.migrations, 0u) << config.label;
    }
    totals.points += report.crash_points;
    totals.checkpoints += report.checkpoints;
    totals.objects += report.objects_verified;
  }
  return totals;
}

// The matrix is split by threading so a race detector can run only the
// cells where a worker thread exists; the synchronous cells have a single
// thread and nothing to race.
TEST(DurabilityFuzzTest, SynchronousCellsRecoverByteForByte) {
  const FuzzTotals totals = RunCells(/*threaded=*/false);
  // At least 1000 injected crash/torn-write points, all recovering
  // exactly.
  EXPECT_GE(totals.points, 1000u);
  EXPECT_GT(totals.checkpoints, 0u);
  EXPECT_GT(totals.objects, 0u);
}

TEST(DurabilityFuzzTest, ThreadedCellsRecoverByteForByte) {
  const FuzzTotals totals = RunCells(/*threaded=*/true);
  EXPECT_GE(totals.points, 100u);
  EXPECT_GT(totals.checkpoints, 0u);
  EXPECT_GT(totals.objects, 0u);
}

TEST(DurabilityFuzzTest, SameSeedSameReport) {
  CrashFuzzOptions options;
  options.scenario = "steady-churn";
  options.shard_count = 2;
  options.seed = 11;
  CrashFuzzReport first;
  CrashFuzzReport second;
  ASSERT_TRUE(RunCrashFuzz(options, &first).ok());
  ASSERT_TRUE(RunCrashFuzz(options, &second).ok());
  EXPECT_EQ(first.crash_points, second.crash_points);
  EXPECT_EQ(first.log_records, second.log_records);
  EXPECT_EQ(first.log_bytes, second.log_bytes);
  EXPECT_EQ(first.recovered_records, second.recovered_records);
  EXPECT_EQ(first.objects_verified, second.objects_verified);
}

TEST(DurabilityFuzzTest, UnmanagedAlgorithmIsRejected) {
  CrashFuzzOptions options;
  options.algorithm = "cost-oblivious";
  CrashFuzzReport report;
  EXPECT_EQ(RunCrashFuzz(options, &report).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cosr
