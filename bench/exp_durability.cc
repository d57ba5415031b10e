// E10 — durability tier: what the crash-consistent move log costs, what
// the group-commit fast path buys back, and how fast recovery replays it.
//
//   * Log overhead — the same churn trace through a checkpoint-managed
//     reallocator with no log, a memory-sink log, and a file-backed log
//     (real write(2)/fsync(2)), each logging sink swept across the
//     group-commit policy grid: sync-every-checkpoint (the strict PR 6
//     discipline), coalescing windows of 8 and 32 checkpoints per fsync,
//     and coalescing + checkpoint-time log compaction.
//   * Recovery time vs log length — recover complete logs of increasing
//     length into a fresh space + simulated disk; each length is measured
//     uncompacted and compacted, and the compacted log must replay
//     strictly fewer records to the same checkpoint.
//   * Crash-recovery fuzz — the same deterministic harness the tests gate
//     on (record-boundary cuts, torn records, mid-batch tears across
//     scenarios x algorithms x shard counts on the inline driver),
//     including group-commit policy cells whose crash surface covers
//     unsynced checkpoint records and retired pre-compaction streams.
//   * Driver log equality — the threaded driver against the inline one on
//     the fuzz's smoke traces, per-op and batched submission, with and
//     without a compacting policy: every shard's log bytes must match, so
//     the inline crash points cover the threaded driver too.
//
// Writes BENCH_durability.json (run from the repo root to refresh the
// committed artifact). The checkpointed file-sink cells run 5 trials each
// and report the median one; a non-timing column that differs between
// trials fails the run. --smoke shrinks sizes and asserts via exit code
// that every injected crash point recovered exactly, that the run
// injected >= 1000 points in total, that coalescing cells really coalesce
// (syncs < checkpoints), that compacting cells commit rewrites and fuzz
// the retired streams, that compaction shrinks the replayed record count,
// and that every equality row is identical — the CI durability gate.
//
// Usage: exp_durability [--smoke]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cosr/common/check.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/durability/recovery_manager.h"
#include "cosr/realloc/factory.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/simulated_disk.h"
#include "cosr/workload/trace.h"
#include "cosr/workload/workload_generator.h"
#include "support/crash_fuzz.h"

namespace cosr {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Trace BenchTrace(std::uint64_t operations) {
  return MakeChurnTrace({.operations = operations,
                         .target_live_volume = 1u << 16,
                         .min_size = 1,
                         .max_size = 512,
                         .seed = 7});
}

// ------------------------------------------------------------ log overhead

struct OverheadRow {
  std::string algorithm;
  std::string sink;    // "none" | "memory" | "file"
  std::string policy;  // "-" | "sync1" | "gc8" | "gc32" | "gc32+compact"
  std::uint32_t max_unsynced = 1;
  std::uint64_t compaction_threshold = 0;
  std::uint64_t operations = 0;
  double wall_seconds = 0;
  std::uint64_t log_records = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t log_syncs = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t log_compactions = 0;
  double sync_wall_seconds = 0;
};

/// Replays `trace` through a single-instance managed reallocator, wired to
/// `hub` when non-null, ending on Quiesce + a final checkpoint so the log
/// closes on a durable point.
bool DriveSingle(const std::string& algorithm, const Trace& trace,
                 DurabilityHub* hub, OverheadRow* row) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  ReallocatorSpec spec;
  spec.algorithm = algorithm;
  spec.durability = hub;
  std::unique_ptr<Reallocator> realloc;
  const Status made = MakeReallocator(spec, &space, &realloc);
  if (!made.ok()) {
    std::printf("factory failed: %s\n", made.ToString().c_str());
    return false;
  }
  const auto start = Clock::now();
  for (const Request& request : trace.requests()) {
    const Status status = request.type == Request::Type::kInsert
                              ? realloc->Insert(request.id, request.size)
                              : realloc->Delete(request.id);
    if (!status.ok()) {
      std::printf("request failed: %s\n", status.ToString().c_str());
      return false;
    }
  }
  realloc->Quiesce();
  space.Checkpoint();
  row->wall_seconds = Seconds(start);
  row->algorithm = algorithm;
  row->operations = trace.requests().size();
  if (hub != nullptr) {
    row->log_records = hub->total_records();
    row->log_bytes = hub->total_bytes();
    row->log_syncs = hub->total_syncs();
    row->checkpoints = hub->total_checkpoints();
    row->log_compactions = hub->total_compactions();
    row->sync_wall_seconds = hub->total_sync_wall_seconds();
  }
  return true;
}

/// Trials per checkpointed file-sink cell; the row is the median one.
constexpr int kFileTrials = 5;

struct PolicyCell {
  const char* label;
  std::uint32_t max_unsynced;
  std::uint64_t compaction_threshold;
};

bool RunOverhead(std::uint64_t operations, std::vector<OverheadRow>* rows) {
  std::printf("\nLog overhead (one churn trace, %llu ops, final state "
              "checkpointed; policy = checkpoints coalesced per fsync):\n",
              static_cast<unsigned long long>(operations));
  bench::Table table({"algorithm", "sink", "policy", "ops/s", "overhead",
                      "records", "log bytes", "syncs", "ckpts", "compactions",
                      "sync ms"});
  const Trace trace = BenchTrace(operations);
  const PolicyCell kPolicies[] = {
      {"sync1", 1, 0},
      {"gc8", 8, 0},
      {"gc32", 32, 0},
      {"gc32+compact", 32, std::uint64_t{1} << 16},
  };
  bool ok = true;
  for (const std::string algorithm : {"checkpointed", "deamortized"}) {
    double baseline_wall = 0;
    {
      OverheadRow row;
      row.sink = "none";
      row.policy = "-";
      ok &= DriveSingle(algorithm, trace, nullptr, &row);
      if (!ok) return false;
      baseline_wall = row.wall_seconds;
      table.AddRow({row.algorithm, row.sink, row.policy,
                    bench::Fmt(static_cast<double>(row.operations) /
                                   row.wall_seconds / 1e6,
                               2) +
                        "M",
                    "1.00x", "-", "-", "-", "-", "-", "-"});
      rows->push_back(row);
    }
    for (const std::string sink : {"memory", "file"}) {
      for (const PolicyCell& cell : kPolicies) {
        // The checkpointed file-sink cells carry the group-commit headline,
        // a ratio of two fsync-bound rates: each runs kFileTrials times
        // and reports its median trial.
        const int trials =
            sink == "file" && algorithm == "checkpointed" ? kFileTrials : 1;
        std::vector<OverheadRow> runs(trials);
        for (OverheadRow& run : runs) {
          run.sink = sink;
          run.policy = cell.label;
          run.max_unsynced = cell.max_unsynced;
          run.compaction_threshold = cell.compaction_threshold;
          DurabilityHub::Options hub_options;
          hub_options.group_commit.max_unsynced_checkpoints =
              cell.max_unsynced;
          hub_options.group_commit.compaction_threshold_bytes =
              cell.compaction_threshold;
          if (sink == "file") {
            hub_options.sink_kind = DurabilityHub::SinkKind::kFile;
            hub_options.file_prefix =
                "exp_durability_" + algorithm + "_" + cell.label + "_";
          }
          DurabilityHub hub(hub_options);
          ok &= DriveSingle(algorithm, trace, &hub, &run);
          if (sink == "file") std::remove(hub.file_path(0).c_str());
          if (!ok) return false;
        }
        std::sort(runs.begin(), runs.end(),
                  [](const OverheadRow& a, const OverheadRow& b) {
                    return a.wall_seconds < b.wall_seconds;
                  });
        const OverheadRow row = runs[runs.size() / 2];
        const auto counts = [](const OverheadRow& r) {
          return std::tie(r.log_records, r.log_bytes, r.log_syncs,
                          r.checkpoints, r.log_compactions);
        };
        for (const OverheadRow& run : runs) {
          if (counts(run) != counts(row)) {
            std::printf("OVERHEAD FAILURE %s/%s/%s: a non-timing column "
                        "differs between trials\n",
                        algorithm.c_str(), sink.c_str(), cell.label);
            ok = false;
          }
        }
        // Sync accounting invariants: a sync only ever happens at a
        // checkpoint, and the coalescing window is honored exactly (the
        // tail of the last window legitimately stays unsynced).
        if (row.log_syncs > row.checkpoints) {
          std::printf("OVERHEAD FAILURE %s/%s/%s: more syncs than "
                      "checkpoints\n",
                      algorithm.c_str(), sink.c_str(), cell.label);
          ok = false;
        }
        if (row.log_syncs != row.checkpoints / cell.max_unsynced) {
          std::printf("OVERHEAD FAILURE %s/%s/%s: %llu syncs for %llu "
                      "checkpoints (window %u)\n",
                      algorithm.c_str(), sink.c_str(), cell.label,
                      static_cast<unsigned long long>(row.log_syncs),
                      static_cast<unsigned long long>(row.checkpoints),
                      cell.max_unsynced);
          ok = false;
        }
        if (cell.compaction_threshold > 0 && row.log_compactions == 0) {
          std::printf("OVERHEAD FAILURE %s/%s/%s: compaction never fired\n",
                      algorithm.c_str(), sink.c_str(), cell.label);
          ok = false;
        }
        const double ops_per_sec =
            static_cast<double>(row.operations) / row.wall_seconds;
        const double overhead =
            baseline_wall > 0 ? row.wall_seconds / baseline_wall : 1.0;
        table.AddRow({row.algorithm, row.sink, row.policy,
                      bench::Fmt(ops_per_sec / 1e6, 2) + "M",
                      bench::Fmt(overhead, 2) + "x",
                      std::to_string(row.log_records),
                      std::to_string(row.log_bytes),
                      std::to_string(row.log_syncs),
                      std::to_string(row.checkpoints),
                      std::to_string(row.log_compactions),
                      bench::Fmt(row.sync_wall_seconds * 1e3, 1)});
        rows->push_back(row);
      }
    }
  }
  table.Print();
  // The headline: what coalescing buys on the file sink, where each saved
  // sync is a real fsync(2).
  double file_sync1 = 0;
  double file_gc32 = 0;
  for (const OverheadRow& row : *rows) {
    if (row.algorithm != "checkpointed" || row.sink != "file") continue;
    const double ops_per_sec =
        static_cast<double>(row.operations) / row.wall_seconds;
    if (row.policy == "sync1") file_sync1 = ops_per_sec;
    if (row.policy == "gc32") file_gc32 = ops_per_sec;
  }
  if (file_sync1 > 0 && file_gc32 > 0) {
    std::printf("file-sink group-commit speedup (checkpointed, gc32 vs "
                "sync1): %.1fx\n",
                file_gc32 / file_sync1);
    if (file_gc32 < 5 * file_sync1) {
      std::printf("OVERHEAD FAILURE: gc32 under 5x sync1 on the file sink\n");
      ok = false;
    }
  }
  return ok;
}

// --------------------------------------------------- recovery time vs length

struct RecoveryRow {
  std::uint64_t operations = 0;
  bool compacted = false;
  std::uint64_t log_records = 0;
  std::uint64_t log_bytes = 0;
  double recover_wall_seconds = 0;
  std::uint64_t checkpoint_seq = 0;
};

bool RunRecovery(const std::vector<std::uint64_t>& op_counts,
                 std::vector<RecoveryRow>* rows) {
  std::printf("\nRecovery time vs log length (full log, fresh space + "
              "simulated disk; compacted = checkpoint-time log "
              "compaction enabled during the drive):\n");
  bench::Table table({"ops", "compacted", "records", "log bytes",
                      "recover ms", "records/s", "MB/s"});
  bool ok = true;
  for (const std::uint64_t operations : op_counts) {
    std::uint64_t replayed_plain = 0;
    std::uint64_t replayed_compacted = 0;
    std::uint64_t seq_plain = 0;
    std::uint64_t seq_compacted = 0;
    for (const bool compacted : {false, true}) {
      DurabilityHub::Options hub_options;
      if (compacted) {
        hub_options.group_commit.compaction_threshold_bytes =
            std::uint64_t{1} << 14;
      }
      DurabilityHub hub(hub_options);
      OverheadRow drive;
      drive.sink = "memory";
      if (!DriveSingle("checkpointed", BenchTrace(operations), &hub,
                       &drive)) {
        return false;
      }
      if (compacted && hub.total_compactions() == 0) {
        std::printf("RECOVERY FAILURE: compaction never fired at %llu ops\n",
                    static_cast<unsigned long long>(operations));
        ok = false;
      }
      const MemoryLogSink* sink = hub.memory_sink(0);
      COSR_CHECK(sink != nullptr);

      AddressSpace space;
      SimulatedDisk disk;
      space.AddListener(&disk);
      RecoveryResult result;
      const auto start = Clock::now();
      const Status recovered = RecoveryManager::Recover(
          sink->data().data(), sink->data().size(), &space, &result);
      const double wall = Seconds(start);
      if (!recovered.ok() || result.torn_tail ||
          result.records_discarded != 0) {
        std::printf("full-log recovery failed: %s\n",
                    recovered.ToString().c_str());
        return false;
      }
      RecoveryRow row;
      row.operations = operations;
      row.compacted = compacted;
      row.log_records = result.records_replayed;
      row.log_bytes = sink->size();
      row.recover_wall_seconds = wall;
      row.checkpoint_seq = result.checkpoint_seq;
      rows->push_back(row);
      (compacted ? replayed_compacted : replayed_plain) = row.log_records;
      (compacted ? seq_compacted : seq_plain) = row.checkpoint_seq;
      table.AddRow(
          {std::to_string(operations), compacted ? "yes" : "no",
           std::to_string(row.log_records), std::to_string(row.log_bytes),
           bench::Fmt(wall * 1e3, 2),
           bench::Fmt(static_cast<double>(row.log_records) / wall / 1e6, 2) +
               "M",
           bench::Fmt(static_cast<double>(row.log_bytes) / wall / 1e6, 1)});
    }
    // The point of compaction: the same trace, the same final checkpoint,
    // strictly fewer records to replay.
    if (seq_compacted != seq_plain) {
      std::printf("RECOVERY FAILURE at %llu ops: compacted log recovered "
                  "seq %llu, plain log seq %llu\n",
                  static_cast<unsigned long long>(operations),
                  static_cast<unsigned long long>(seq_compacted),
                  static_cast<unsigned long long>(seq_plain));
      ok = false;
    }
    if (replayed_compacted >= replayed_plain) {
      std::printf("RECOVERY FAILURE at %llu ops: compaction did not shrink "
                  "the replayed record count (%llu vs %llu)\n",
                  static_cast<unsigned long long>(operations),
                  static_cast<unsigned long long>(replayed_compacted),
                  static_cast<unsigned long long>(replayed_plain));
      ok = false;
    }
  }
  table.Print();
  return ok;
}

// ------------------------------------------------------- crash-recovery fuzz

struct FuzzRow {
  CrashFuzzOptions options;
  CrashFuzzReport report;
  std::string policy = "sync1";
};

void FullSizePoints(CrashFuzzOptions* options) {
  options->operations = 600;
  options->boundary_points_per_shard = 60;
  options->torn_points_per_shard = 50;
  options->mid_batch_points_per_shard = 50;
}

/// The new policy cells carry the acceptance bar of >= 1000 points each at
/// full size, so they get a denser injection grid than the legacy cells.
void FullSizePolicyPoints(CrashFuzzOptions* options) {
  options->operations = 800;
  options->boundary_points_per_shard = 120;
  options->torn_points_per_shard = 100;
  options->mid_batch_points_per_shard = 100;
}

bool RunFuzz(bool smoke, std::vector<FuzzRow>* rows,
             std::size_t* total_points) {
  std::printf("\nCrash-recovery fuzz (every injected point must recover the "
              "last-checkpointed state byte-for-byte):\n");
  bench::Table table({"scenario", "algorithm", "K", "policy",
                      "points", "boundary", "torn", "mid-batch", "pre-compact",
                      "ckpts", "syncs", "compactions", "records",
                      "migrations", "objects verified"});
  const std::vector<std::string> scenarios = {"steady-churn", "ramp-collapse",
                                              "bimodal-churn"};
  bool ok = true;
  for (const std::string& scenario : scenarios) {
    for (const std::string algorithm : {"checkpointed", "deamortized"}) {
      for (const std::uint32_t shards : {1u, 4u}) {
        FuzzRow row;
        row.options.scenario = scenario;
        row.options.algorithm = algorithm;
        row.options.shard_count = shards;
        row.options.seed = 3;
        if (!smoke) FullSizePoints(&row.options);
        rows->push_back(row);
      }
    }
  }
  // Migration-active cells: the rebalancer drains victims across shards
  // during the drive, so crash points cut logs with migration records
  // (source-side Delete, destination-side Place) in flight.
  for (const std::string algorithm : {"checkpointed", "deamortized"}) {
    FuzzRow row;
    row.options.scenario = "zipf-churn";
    row.options.algorithm = algorithm;
    row.options.shard_count = 4;
    row.options.rebalance = true;
    row.options.seed = 3;
    if (!smoke) FullSizePoints(&row.options);
    rows->push_back(row);
  }
  // Group-commit policy cells: coalesced syncs put unsynced checkpoint
  // records on the crash surface (legal landing points), and compaction
  // adds cuts inside retired pre-compaction streams and compacted
  // snapshot prefixes.
  {
    FuzzRow row;
    row.options.scenario = "steady-churn";
    row.options.algorithm = "checkpointed";
    row.options.shard_count = 4;
    row.options.seed = 3;
    row.options.group_commit.max_unsynced_checkpoints = 4;
    row.policy = "gc4";
    if (!smoke) FullSizePolicyPoints(&row.options);
    rows->push_back(row);
  }
  {
    FuzzRow row;
    row.options.scenario = "ramp-collapse";
    row.options.algorithm = "deamortized";
    row.options.shard_count = 4;
    row.options.seed = 3;
    row.options.group_commit.max_unsynced_checkpoints = 8;
    row.options.group_commit.compaction_threshold_bytes = 2048;
    row.policy = "gc8+compact";
    if (!smoke) FullSizePolicyPoints(&row.options);
    rows->push_back(row);
  }
  {
    FuzzRow row;
    row.options.scenario = "steady-churn";
    row.options.algorithm = "checkpointed";
    row.options.shard_count = 4;
    row.options.seed = 3;
    row.options.group_commit.max_unsynced_checkpoints = 4;
    row.options.group_commit.compaction_threshold_bytes = 4096;
    row.policy = "gc4+compact";
    if (!smoke) FullSizePolicyPoints(&row.options);
    rows->push_back(row);
  }
  for (FuzzRow& row : *rows) {
    const Status status = RunCrashFuzz(row.options, &row.report);
    if (!status.ok()) {
      std::printf("FUZZ FAILURE %s/%s K=%u: %s\n",
                  row.options.scenario.c_str(), row.options.algorithm.c_str(),
                  row.options.shard_count, status.ToString().c_str());
      ok = false;
      continue;
    }
    *total_points += row.report.crash_points;
    // The migration-active cells must actually migrate, or their crash
    // points degenerate into the plain sharded cells.
    if (row.options.rebalance && row.report.migrations == 0) {
      std::printf("FUZZ FAILURE %s/%s K=%u: rebalance cell ran with "
                  "zero migrations\n",
                  row.options.scenario.c_str(), row.options.algorithm.c_str(),
                  row.options.shard_count);
      ok = false;
    }
    // The policy cells must exercise what they claim: coalescing cells
    // really coalesce, compacting cells really retire streams — and at
    // full size each policy cell carries the >= 1000 point bar alone.
    if (!row.options.group_commit.sync_every_checkpoint() &&
        row.report.syncs >= row.report.checkpoints) {
      std::printf("FUZZ FAILURE %s cell: coalescing policy never "
                  "coalesced (%llu syncs, %zu checkpoints)\n",
                  row.policy.c_str(),
                  static_cast<unsigned long long>(row.report.syncs),
                  row.report.checkpoints);
      ok = false;
    }
    if (row.options.group_commit.compaction_threshold_bytes > 0 &&
        (row.report.compactions == 0 ||
         row.report.pre_compaction_points == 0)) {
      std::printf("FUZZ FAILURE %s cell: compacting policy retired no "
                  "streams (%llu compactions, %zu pre-compaction points)\n",
                  row.policy.c_str(),
                  static_cast<unsigned long long>(row.report.compactions),
                  row.report.pre_compaction_points);
      ok = false;
    }
    if (!smoke && row.policy != "sync1" && row.report.crash_points < 1000) {
      std::printf("FUZZ FAILURE %s cell: %zu crash points, acceptance "
                  "needs >= 1000 per policy cell\n",
                  row.policy.c_str(), row.report.crash_points);
      ok = false;
    }
    table.AddRow({row.options.scenario, row.options.algorithm,
                  std::to_string(row.options.shard_count), row.policy,
                  std::to_string(row.report.crash_points),
                  std::to_string(row.report.boundary_points),
                  std::to_string(row.report.torn_points),
                  std::to_string(row.report.mid_batch_points),
                  std::to_string(row.report.pre_compaction_points),
                  std::to_string(row.report.checkpoints),
                  std::to_string(row.report.syncs),
                  std::to_string(row.report.compactions),
                  std::to_string(row.report.log_records),
                  std::to_string(row.report.migrations),
                  std::to_string(row.report.objects_verified)});
  }
  table.Print();
  std::printf("total injected crash points: %zu\n", *total_points);
  return ok;
}

// ------------------------------------------------------ driver log equality

struct EqualityRow {
  std::string scenario;
  std::string policy;  // "sync1" | "gc4+compact"
  DriverLogOptions options;
  DriverLogReport report;
  bool identical = false;
};

/// The threaded driver against the inline one over the fuzz's smoke
/// traces (CompareDriverLogs): per-op Submit at W = 1, 2, 4 and SubmitMany
/// in 32-op chunks, under sync1 and a coalescing, compacting policy.
bool RunEquality(std::vector<EqualityRow>* rows) {
  std::printf("\nThreaded vs inline driver logs (checkpointed K=4, 300 ops; "
              "identical = every shard's live and retired streams, syncs, "
              "compactions and checkpoints equal):\n");
  bench::Table table({"scenario", "W", "submission", "policy", "records",
                      "log bytes", "syncs", "compactions", "retired",
                      "identical"});
  GroupCommitPolicy gc4;
  gc4.max_unsynced_checkpoints = 4;
  gc4.compaction_threshold_bytes = 4096;
  bool ok = true;
  for (const char* scenario : {"steady-churn", "ramp-collapse",
                               "bimodal-churn"}) {
    Trace trace;
    if (!FindFuzzTrace(scenario, &trace).ok()) return false;
    for (const bool compact : {false, true}) {
      for (const auto& [workers, chunk] :
           {std::pair<std::uint32_t, std::size_t>{1, 0}, {2, 0}, {4, 0},
            {4, 32}}) {
        EqualityRow row;
        row.scenario = scenario;
        row.policy = compact ? "gc4+compact" : "sync1";
        row.options.worker_threads = workers;
        row.options.chunk = chunk;
        if (compact) row.options.group_commit = gc4;
        const Status status =
            CompareDriverLogs(trace, row.options, &row.report);
        row.identical = status.ok();
        if (!row.identical) {
          std::printf("EQUALITY FAILURE %s W=%u chunk=%zu %s: %s\n",
                      scenario, workers, chunk, row.policy.c_str(),
                      status.ToString().c_str());
          ok = false;
        }
        table.AddRow({row.scenario, std::to_string(workers),
                      chunk == 0 ? "per-op" : "batched", row.policy,
                      std::to_string(row.report.records),
                      std::to_string(row.report.bytes),
                      std::to_string(row.report.syncs),
                      std::to_string(row.report.compactions),
                      std::to_string(row.report.retired_streams),
                      row.identical ? "yes" : "NO"});
        rows->push_back(row);
      }
    }
  }
  table.Print();
  return ok;
}

// ----------------------------------------------------------------- the JSON

void WriteJson(const std::vector<OverheadRow>& overhead,
               const std::vector<RecoveryRow>& recovery,
               const std::vector<FuzzRow>& fuzz,
               const std::vector<EqualityRow>& equality,
               std::size_t total_points, bool smoke) {
  std::FILE* json = std::fopen("BENCH_durability.json", "w");
  if (json == nullptr) {
    std::printf("cannot open BENCH_durability.json for writing\n");
    return;
  }
  std::fprintf(json,
               "{\n  \"schema_version\": 4,\n  \"smoke\": %s,\n"
               "  \"total_crash_points\": %zu,\n  \"rows\": [\n",
               smoke ? "true" : "false", total_points);
  bool first = true;
  for (const OverheadRow& row : overhead) {
    std::fprintf(
        json,
        "%s    {\"section\": \"overhead\", \"algorithm\": \"%s\", "
        "\"sink\": \"%s\", \"policy\": \"%s\", "
        "\"max_unsynced_checkpoints\": %u, "
        "\"compaction_threshold_bytes\": %llu, \"operations\": %llu, "
        "\"wall_seconds\": %.6f, \"ops_per_sec\": %.1f, "
        "\"log_records\": %llu, \"log_bytes\": %llu, \"log_syncs\": %llu, "
        "\"checkpoints\": %llu, \"log_compactions\": %llu, "
        "\"sync_wall_seconds\": %.6f}",
        first ? "" : ",\n", row.algorithm.c_str(), row.sink.c_str(),
        row.policy.c_str(), row.max_unsynced,
        static_cast<unsigned long long>(row.compaction_threshold),
        static_cast<unsigned long long>(row.operations), row.wall_seconds,
        static_cast<double>(row.operations) / row.wall_seconds,
        static_cast<unsigned long long>(row.log_records),
        static_cast<unsigned long long>(row.log_bytes),
        static_cast<unsigned long long>(row.log_syncs),
        static_cast<unsigned long long>(row.checkpoints),
        static_cast<unsigned long long>(row.log_compactions),
        row.sync_wall_seconds);
    first = false;
  }
  for (const RecoveryRow& row : recovery) {
    std::fprintf(
        json,
        "%s    {\"section\": \"recovery\", \"operations\": %llu, "
        "\"compacted\": %s, \"log_records\": %llu, \"log_bytes\": %llu, "
        "\"recover_wall_seconds\": %.6f, \"records_per_sec\": %.1f, "
        "\"checkpoint_seq\": %llu}",
        first ? "" : ",\n", static_cast<unsigned long long>(row.operations),
        row.compacted ? "true" : "false",
        static_cast<unsigned long long>(row.log_records),
        static_cast<unsigned long long>(row.log_bytes),
        row.recover_wall_seconds,
        static_cast<double>(row.log_records) / row.recover_wall_seconds,
        static_cast<unsigned long long>(row.checkpoint_seq));
    first = false;
  }
  for (const FuzzRow& row : fuzz) {
    std::fprintf(
        json,
        "%s    {\"section\": \"fuzz\", \"scenario\": \"%s\", "
        "\"algorithm\": \"%s\", \"facade\": \"sharded\", \"shards\": %u, "
        "\"rebalance\": %s, \"policy\": \"%s\", \"crash_points\": %zu, "
        "\"boundary_points\": %zu, \"torn_points\": %zu, "
        "\"mid_batch_points\": %zu, \"pre_compaction_points\": %zu, "
        "\"checkpoints\": %zu, \"syncs\": %llu, \"compactions\": %llu, "
        "\"log_records\": %llu, \"log_bytes\": %llu, "
        "\"recovered_records\": %llu, \"migrations\": %llu, "
        "\"objects_verified\": %zu}",
        first ? "" : ",\n", row.options.scenario.c_str(),
        row.options.algorithm.c_str(), row.options.shard_count,
        row.options.rebalance ? "true" : "false",
        row.policy.c_str(), row.report.crash_points,
        row.report.boundary_points, row.report.torn_points,
        row.report.mid_batch_points, row.report.pre_compaction_points,
        row.report.checkpoints,
        static_cast<unsigned long long>(row.report.syncs),
        static_cast<unsigned long long>(row.report.compactions),
        static_cast<unsigned long long>(row.report.log_records),
        static_cast<unsigned long long>(row.report.log_bytes),
        static_cast<unsigned long long>(row.report.recovered_records),
        static_cast<unsigned long long>(row.report.migrations),
        row.report.objects_verified);
    first = false;
  }
  for (const EqualityRow& row : equality) {
    std::fprintf(
        json,
        "%s    {\"section\": \"equality\", \"scenario\": \"%s\", "
        "\"workers\": %u, \"submission\": \"%s\", \"policy\": \"%s\", "
        "\"records\": %llu, \"bytes\": %llu, \"syncs\": %llu, "
        "\"compactions\": %llu, \"retired_streams\": %llu, "
        "\"identical\": %s}",
        first ? "" : ",\n", row.scenario.c_str(), row.options.worker_threads,
        row.options.chunk == 0 ? "per-op" : "batched", row.policy.c_str(),
        static_cast<unsigned long long>(row.report.records),
        static_cast<unsigned long long>(row.report.bytes),
        static_cast<unsigned long long>(row.report.syncs),
        static_cast<unsigned long long>(row.report.compactions),
        static_cast<unsigned long long>(row.report.retired_streams),
        row.identical ? "true" : "false");
    first = false;
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_durability.json (%zu rows)\n",
              overhead.size() + recovery.size() + fuzz.size() +
                  equality.size());
}

}  // namespace
}  // namespace cosr

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  cosr::bench::Banner(
      "E10: crash-consistent move log + group-commit fast path (Section 3.1 "
      "durability)",
      "journaling every move batch costs O(1) amortized bytes per op; sync "
      "coalescing amortizes the fsync, compaction bounds replay; any crash "
      "recovers exactly a checkpointed map");

  std::vector<cosr::OverheadRow> overhead;
  std::vector<cosr::RecoveryRow> recovery;
  std::vector<cosr::FuzzRow> fuzz;
  std::vector<cosr::EqualityRow> equality;
  std::size_t total_points = 0;

  bool ok = cosr::RunOverhead(smoke ? 8000 : 60000, &overhead);
  ok &= cosr::RunRecovery(smoke ? std::vector<std::uint64_t>{2000, 8000}
                                : std::vector<std::uint64_t>{2000, 8000, 32000,
                                                             120000},
                          &recovery);
  ok &= cosr::RunFuzz(smoke, &fuzz, &total_points);
  ok &= total_points >= 1000;
  ok &= cosr::RunEquality(&equality);

  cosr::WriteJson(overhead, recovery, fuzz, equality, total_points, smoke);
  cosr::bench::Verdict(
      ok,
      "every injected crash point recovered byte-for-byte (>= 1000 points); "
      "group-commit cells coalesced and compacted as configured; compaction "
      "shrank replay; threaded logs equal inline logs; log overhead and "
      "recovery throughput recorded");
  return ok ? 0 : 1;
}
