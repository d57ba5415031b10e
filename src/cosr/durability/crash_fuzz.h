#ifndef COSR_DURABILITY_CRASH_FUZZ_H_
#define COSR_DURABILITY_CRASH_FUZZ_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "cosr/common/status.h"
#include "cosr/durability/group_commit.h"

namespace cosr {

/// One configuration of the crash-recovery fuzz loop: drive a durability-
/// wired facade through a scenario trace, then replay thousands of
/// deterministically injected crash points (clean record-boundary cuts,
/// torn final records, cuts inside move-batch payloads) against the
/// per-shard move logs and demand that every recovery reproduces the
/// last-checkpointed state exactly — map equality against the snapshot the
/// checkpoint hook captured at that sequence number, plus byte-for-byte
/// content verification through SimulatedDisk::VerifyObject.
struct CrashFuzzOptions {
  /// Scenario name from MakeScenarioBattery (Smoke sizes, fixed seed).
  std::string scenario = "steady-churn";
  /// A checkpoint-managed algorithm: "checkpointed" or "deamortized".
  std::string algorithm = "checkpointed";
  double epsilon = 0.25;
  std::uint32_t shard_count = 1;
  /// false: ShardedReallocator over one shared parent (per-shard logs
  /// behind the executing-shard forwarder). true:
  /// ConcurrentShardedReallocator (per-shard logs on private roots,
  /// driven by worker threads).
  bool concurrent = false;
  std::uint32_t worker_threads = 0;  // concurrent only; 0 = one per shard
  /// Concurrent only: drive the trace through SubmitMany batches over the
  /// lock-free remote queues instead of synchronous per-op calls, so the
  /// durability wiring is fuzzed under the batched submission path too
  /// (statuses are then checked via failed_ops after the drain).
  bool batched_submission = false;
  /// Drive the trace with the cross-shard rebalancer active, so crash
  /// points land while migrations (a Delete journaled on the source
  /// shard's log + a Place journaled on the destination's) are in flight.
  /// Enables the synchronous facade's rebalance scan (Options::rebalance)
  /// every 25 requests, with thresholds scaled down so the smoke-size
  /// traces actually migrate. Synchronous only: the concurrent facade
  /// routes by hash only, so RunCrashFuzz returns InvalidArgument for
  /// concurrent + rebalance.
  bool rebalance = false;
  /// Trace prefix length to drive (a prefix of a valid trace is valid).
  std::size_t operations = 300;
  /// Keep spans small: every crash point rebuilds a SimulatedDisk sized by
  /// the recovered footprint, so the default 1<<44 production span would
  /// ask for terabyte vectors.
  std::uint64_t subrange_span = 1ull << 22;
  /// Seed for torn-cut sampling (crash points are deterministic given it).
  std::uint64_t seed = 1;
  /// Injected points per shard log, by fault mode. When compaction
  /// retires pre-compaction streams, each retired stream is fuzzed with
  /// the same counts (reported in pre_compaction_points), so the
  /// mid-compaction crash surface gets full coverage too.
  std::size_t boundary_points_per_shard = 40;
  std::size_t torn_points_per_shard = 30;
  std::size_t mid_batch_points_per_shard = 30;
  /// Sync-coalescing + compaction policy for every shard's log. The
  /// default (sync every checkpoint, no compaction) is the PR 6 contract;
  /// coalescing policies add unsynced checkpoint records to the crash
  /// surface, and compacting policies add cuts inside retired
  /// pre-compaction streams and compacted snapshot streams.
  GroupCommitPolicy group_commit;
};

struct CrashFuzzReport {
  std::size_t crash_points = 0;  // total injected (sum of the three modes)
  std::size_t boundary_points = 0;
  std::size_t torn_points = 0;
  std::size_t mid_batch_points = 0;
  /// Of crash_points: points injected into pre-compaction streams a
  /// committed rewrite retired (the mid-compaction crash surface).
  std::size_t pre_compaction_points = 0;
  std::size_t checkpoints = 0;  // checkpoint snapshots captured, all shards
  std::uint64_t syncs = 0;       // physical Sync() calls, all shards
  std::uint64_t compactions = 0;  // committed log rewrites, all shards
  std::uint64_t log_records = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t recovered_records = 0;  // records replayed across all points
  std::size_t objects_verified = 0;     // VerifyObject passes, all points
  std::uint64_t migrations = 0;         // cross-shard moves during the drive
};

/// Runs one fuzz configuration. Ok means every injected crash point
/// recovered byte-for-byte; the first divergence (or setup error) returns
/// a non-ok Status naming it. `report` is filled as far as the run got.
Status RunCrashFuzz(const CrashFuzzOptions& options, CrashFuzzReport* report);

}  // namespace cosr

#endif  // COSR_DURABILITY_CRASH_FUZZ_H_
