#ifndef COSR_TESTS_SUPPORT_CRASH_FUZZ_H_
#define COSR_TESTS_SUPPORT_CRASH_FUZZ_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "cosr/common/status.h"
#include "cosr/durability/group_commit.h"
#include "cosr/workload/trace.h"

namespace cosr {

/// One configuration of the crash-recovery fuzz loop: drive a durability-
/// wired facade through a scenario trace, then replay thousands of
/// deterministically injected crash points (clean record-boundary cuts,
/// torn final records, cuts inside move-batch payloads) against the
/// per-shard move logs and demand that every recovery reproduces the
/// last-checkpointed state exactly — map equality against the snapshot the
/// checkpoint hook captured at that sequence number, plus byte-for-byte
/// content verification through SimulatedDisk::VerifyObject.
///
/// The drive runs on the inline ShardedReallocator only. The threaded
/// driver writes the same bytes to every shard's log (CompareDriverLogs
/// below proves it per trace), and a recovery is a function of the log's
/// bytes, so its crash points are these.
struct CrashFuzzOptions {
  /// Scenario name from MakeScenarioBattery (Smoke sizes, fixed seed).
  std::string scenario = "steady-churn";
  /// A checkpoint-managed algorithm: "checkpointed" or "deamortized".
  std::string algorithm = "checkpointed";
  double epsilon = 0.25;
  std::uint32_t shard_count = 1;
  /// Drive the trace with the cross-shard rebalancer active, so crash
  /// points land while migrations (a Delete journaled on the source
  /// shard's log + a Place journaled on the destination's) are in flight.
  /// Enables the inline facade's rebalance scan (Options::rebalance)
  /// every 25 requests, with thresholds scaled down so the smoke-size
  /// traces actually migrate.
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
  /// default (sync every checkpoint, no compaction) is the strict discipline;
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

/// The smoke-size battery scenario called `name`: the traces the crash
/// fuzz drives.
Status FindFuzzTrace(const std::string& name, Trace* out);

/// One drive of the threaded driver against the inline one.
struct DriverLogOptions {
  std::string algorithm = "checkpointed";
  std::uint32_t worker_threads = 1;
  /// 0: per-op Submit. n > 0: SubmitMany in n-op chunks.
  std::size_t chunk = 0;
  /// Trace prefix length to drive.
  std::size_t operations = 300;
  GroupCommitPolicy group_commit;
};

/// Inline-hub totals of one CompareDriverLogs drive, all shards.
struct DriverLogReport {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;  // live streams
  std::uint64_t syncs = 0;
  std::uint64_t compactions = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t retired_streams = 0;  // discarded_streams() entries
};

/// Drives the inline ShardedReallocator and the threaded
/// ConcurrentShardedReallocator (K=4, hash routing) over one trace prefix,
/// each with its own DurabilityHub of memory sinks, with CheckpointAll on
/// both every 200 requests and once more after Quiesce. Ok means every
/// shard's logs are byte-identical: the live stream and its record ends,
/// every stream a compaction retired, and the sync, compaction and
/// checkpoint counts. The threaded driver must report zero failed ops,
/// and each live log must recover exactly its threaded shard's objects.
/// The first difference returns a non-ok Status naming it.
Status CompareDriverLogs(const Trace& trace, const DriverLogOptions& options,
                         DriverLogReport* report);

}  // namespace cosr

#endif  // COSR_TESTS_SUPPORT_CRASH_FUZZ_H_
