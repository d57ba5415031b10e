// Crash-recovery fuzz gate: thousands of deterministically injected crash
// points (record-boundary cuts, torn final records, mid-batch tears)
// across scenarios x algorithms x shard counts x group-commit policies,
// every one of which must recover the last-checkpointed state byte for
// byte. This is the CI gate for the durability tier; the bench variant
// reuses the same harness at larger sizes. The cells run on the inline
// driver; move_log_test proves the threaded driver's logs byte-identical.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cosr/durability/group_commit.h"
#include "support/crash_fuzz.h"

namespace cosr {
namespace {

/// Fuzz cells by label, all at seed 7. `add` returns the new cell's
/// options, valid until the next `add`.
std::vector<std::pair<std::string, CrashFuzzOptions>> Configs() {
  std::vector<std::pair<std::string, CrashFuzzOptions>> configs;
  const auto add = [&configs](const std::string& scenario,
                              const std::string& algorithm,
                              std::uint32_t shards, const std::string& cell) {
    CrashFuzzOptions options;
    options.scenario = scenario;
    options.algorithm = algorithm;
    options.shard_count = shards;
    options.seed = 7;
    configs.emplace_back(scenario + "/" + algorithm + "/" + cell, options);
    return &configs.back().second;
  };
  for (const std::string scenario : {"steady-churn", "ramp-collapse",
                                     "bimodal-churn"}) {
    for (const std::string algorithm : {"checkpointed", "deamortized"}) {
      add(scenario, algorithm, 1, "sharded-k1");
      add(scenario, algorithm, 4, "sharded-k4");
    }
  }
  // Migration-active cells: crash points land while the rebalancer's
  // cross-shard migrations (Delete journaled on the source shard's log,
  // Place on the destination's) interleave with ordinary churn. One cell
  // per algorithm.
  for (const std::string algorithm : {"checkpointed", "deamortized"}) {
    add("zipf-churn", algorithm, 4, "sharded-k4-rebalance")->rebalance = true;
  }
  // Group-commit cells: coalesced syncs leave unsynced checkpoint records
  // on the crash surface (legal landing points), and compaction adds the
  // mid-rewrite surface — cuts inside retired pre-compaction streams and
  // inside compacted snapshot prefixes. One coalescing-only cell and two
  // coalescing+compaction cells.
  add("steady-churn", "checkpointed", 4, "sharded-k4-gc4")
      ->group_commit.max_unsynced_checkpoints = 4;
  GroupCommitPolicy* gc =
      &add("ramp-collapse", "deamortized", 4, "sharded-k4-gc8-compact")
           ->group_commit;
  gc->max_unsynced_checkpoints = 8;
  gc->compaction_threshold_bytes = 2048;
  gc = &add("steady-churn", "checkpointed", 4, "sharded-k4-gc4-compact")
            ->group_commit;
  gc->max_unsynced_checkpoints = 4;
  gc->compaction_threshold_bytes = 4096;
  return configs;
}

TEST(DurabilityFuzzTest, EveryCellRecoversByteForByte) {
  std::size_t points = 0;
  std::size_t checkpoints = 0;
  std::size_t objects = 0;
  for (const auto& [label, options] : Configs()) {
    CrashFuzzReport report;
    const Status status = RunCrashFuzz(options, &report);
    EXPECT_TRUE(status.ok()) << label << ": " << status.ToString();
    if (!status.ok()) continue;
    EXPECT_GT(report.crash_points, 0u) << label;
    EXPECT_GT(report.checkpoints, 0u) << label;
    EXPECT_GT(report.log_records, 0u) << label;
    // Policy cells must exercise what they claim: coalescing cells really
    // coalesce (fewer syncs than checkpoints), compacting cells really
    // commit rewrites and fuzz the retired pre-compaction streams.
    if (!options.group_commit.sync_every_checkpoint()) {
      EXPECT_LT(report.syncs, report.checkpoints) << label;
    }
    if (options.group_commit.compaction_threshold_bytes > 0) {
      EXPECT_GT(report.compactions, 0u) << label;
      EXPECT_GT(report.pre_compaction_points, 0u) << label;
    }
    // The migration cells must actually migrate, or the
    // "crash-consistent under migration" claim is vacuous.
    if (options.rebalance) {
      EXPECT_GT(report.migrations, 0u) << label;
    }
    points += report.crash_points;
    checkpoints += report.checkpoints;
    objects += report.objects_verified;
  }
  // At least 1000 injected crash/torn-write points, all recovering
  // exactly.
  EXPECT_GE(points, 1000u);
  EXPECT_GT(checkpoints, 0u);
  EXPECT_GT(objects, 0u);
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
