#include "support/crash_fuzz.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cosr/common/random.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/durability/log_record.h"
#include "cosr/durability/recovery_manager.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/concurrent_sharded_reallocator.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/simulated_disk.h"
#include "cosr/workload/scenario.h"
#include "support/fault_injector.h"

namespace cosr {

namespace {

using StateSnapshot = std::vector<std::pair<ObjectId, Extent>>;

StateSnapshot FilterRange(const StateSnapshot& all, std::uint64_t lo,
                          std::uint64_t hi) {
  StateSnapshot out;
  for (const auto& entry : all) {
    if (entry.second.offset >= lo && entry.second.end() <= hi) {
      out.push_back(entry);
    }
  }
  return out;
}

/// Recovers one crashed log image into a fresh space+disk and checks it
/// against the checkpoint snapshot the recovery claims to have reached.
Status VerifyCrashPoint(const std::vector<std::uint8_t>& surviving,
                        const std::map<std::uint64_t, StateSnapshot>& expected,
                        CrashFuzzReport* report) {
  AddressSpace space;  // fresh, unmanaged: replaying validated history
  SimulatedDisk disk;
  space.AddListener(&disk);
  RecoveryResult result;
  COSR_RETURN_IF_ERROR(
      RecoveryManager::Recover(surviving.data(), surviving.size(), &space,
                               &result));

  static const StateSnapshot kEmpty;
  const StateSnapshot* want = &kEmpty;
  if (result.checkpoint_seq != 0) {
    auto it = expected.find(result.checkpoint_seq);
    if (it == expected.end()) {
      return Status::Internal(
          "recovery reached checkpoint seq " +
          std::to_string(result.checkpoint_seq) +
          " but no snapshot was captured there");
    }
    want = &it->second;
  }

  const StateSnapshot recovered = space.Snapshot();
  if (!(recovered == *want)) {
    return Status::Internal(
        "recovered map diverges from checkpoint seq " +
        std::to_string(result.checkpoint_seq) + " snapshot: " +
        std::to_string(recovered.size()) + " vs " +
        std::to_string(want->size()) + " objects");
  }
  for (const auto& entry : recovered) {
    if (!disk.VerifyObject(entry.first, entry.second)) {
      return Status::Internal("byte verification failed for object " +
                              std::to_string(entry.first) + " at " +
                              ToString(entry.second) + " after recovery to "
                              "checkpoint seq " +
                              std::to_string(result.checkpoint_seq));
    }
    ++report->objects_verified;
  }
  report->recovered_records += result.records_replayed;
  return Status::Ok();
}

/// Enumerates and verifies one log stream's crash points: evenly spaced
/// clean boundary cuts, seeded torn-record cuts, and seeded cuts inside
/// move-batch payloads. `salt` varies the torn-cut sampling per stream
/// (live vs retired pre-compaction streams of the same shard).
Status FuzzStream(const CrashFuzzOptions& options, std::uint32_t shard,
                  std::uint64_t salt, const FaultInjector& injector,
                  const std::map<std::uint64_t, StateSnapshot>& expected,
                  CrashFuzzReport* report) {
  const std::size_t n = injector.record_count();
  if (n == 0) return Status::Ok();

  // Clean cuts at record boundaries, evenly spread and always including
  // the final record (= recovery of the complete log).
  const std::size_t boundary_want = options.boundary_points_per_shard;
  if (n <= boundary_want) {
    for (std::size_t i = 0; i < n; ++i) {
      COSR_RETURN_IF_ERROR(
          VerifyCrashPoint(injector.CrashAfterRecord(i), expected, report));
      ++report->boundary_points;
    }
  } else {
    for (std::size_t j = 1; j <= boundary_want; ++j) {
      const std::size_t i = j * n / boundary_want - 1;
      COSR_RETURN_IF_ERROR(
          VerifyCrashPoint(injector.CrashAfterRecord(i), expected, report));
      ++report->boundary_points;
    }
  }

  Rng rng(options.seed * 1000003 + shard + salt * 7919);

  // Torn cuts: the crash lands inside a record, anywhere in its framing.
  for (std::size_t t = 0; t < options.torn_points_per_shard; ++t) {
    const std::size_t index = rng.UniformU64(n);
    const std::uint64_t length = injector.RecordLength(index);
    const std::uint64_t bytes_into = 1 + rng.UniformU64(length - 1);
    COSR_RETURN_IF_ERROR(VerifyCrashPoint(
        injector.TornRecord(index, bytes_into), expected, report));
    ++report->torn_points;
  }

  // Mid-batch cuts: the crash lands inside a move-batch payload — a batch
  // of moves half-journaled, the Lemma 3.2 scenario the checkpoint
  // discipline exists for.
  std::vector<std::size_t> batches;
  for (std::size_t i = 0; i < n; ++i) {
    if (injector.RecordType(i) ==
        static_cast<std::uint8_t>(LogRecordType::kMoveBatch)) {
      batches.push_back(i);
    }
  }
  if (!batches.empty()) {
    for (std::size_t t = 0; t < options.mid_batch_points_per_shard; ++t) {
      const std::size_t index = batches[rng.UniformU64(batches.size())];
      const std::uint64_t length = injector.RecordLength(index);
      const std::uint64_t bytes_into =
          kLogRecordHeaderBytes + 1 +
          rng.UniformU64(length - kLogRecordHeaderBytes - 1);
      COSR_RETURN_IF_ERROR(VerifyCrashPoint(
          injector.TornRecord(index, bytes_into), expected, report));
      ++report->mid_batch_points;
    }
  }
  return Status::Ok();
}

/// Fuzzes every crash surface one shard's sink carries: the live stream,
/// plus every pre-compaction stream a committed rewrite retired — a crash
/// before a compaction's commit point leaves exactly one of those streams
/// on the medium, so their cuts are the mid-compaction-rename surface.
Status FuzzShardLog(const CrashFuzzOptions& options, std::uint32_t shard,
                    const MemoryLogSink& sink,
                    const std::map<std::uint64_t, StateSnapshot>& expected,
                    CrashFuzzReport* report) {
  if (!sink.CheckIntegrity()) {
    return Status::Internal("shard " + std::to_string(shard) +
                            " sink failed its bookkeeping integrity check");
  }
  COSR_RETURN_IF_ERROR(FuzzStream(options, shard, /*salt=*/0,
                                  FaultInjector(sink), expected, report));
  std::uint64_t salt = 1;
  for (const MemoryLogSink::DiscardedStream& stream :
       sink.discarded_streams()) {
    const std::size_t before = report->boundary_points +
                               report->torn_points +
                               report->mid_batch_points;
    COSR_RETURN_IF_ERROR(
        FuzzStream(options, shard, salt++,
                   FaultInjector(stream.data, stream.record_ends), expected,
                   report));
    report->pre_compaction_points += report->boundary_points +
                                     report->torn_points +
                                     report->mid_batch_points - before;
  }
  return Status::Ok();
}

/// Rebalancer thresholds scaled to the smoke-size fuzz traces (per-shard
/// volumes of a few hundred bytes), so migration records actually land in
/// the logs the crash points cut: a scan every 25 requests.
RebalanceOptions AggressiveRebalance() {
  RebalanceOptions options;
  options.hot_footprint_ratio = 1.05;
  options.min_shard_footprint = 64;
  options.max_batch_objects = 8;
  options.max_batch_bytes = 1u << 12;
  options.check_interval = 25;
  return options;
}

}  // namespace

Status RunCrashFuzz(const CrashFuzzOptions& options, CrashFuzzReport* report) {
  if (report == nullptr) {
    return Status::InvalidArgument("report must be non-null");
  }
  *report = CrashFuzzReport{};
  if (!AlgorithmNeedsCheckpointManager(options.algorithm)) {
    return Status::InvalidArgument(
        "crash fuzz requires a checkpoint-managed algorithm, got " +
        options.algorithm);
  }

  Trace trace;
  COSR_RETURN_IF_ERROR(FindFuzzTrace(options.scenario, &trace));
  const std::size_t operations =
      std::min(options.operations, trace.requests().size());

  DurabilityHub::Options hub_options;
  hub_options.group_commit = options.group_commit;
  DurabilityHub hub(hub_options);
  ReallocatorSpec spec;
  spec.algorithm = options.algorithm;
  spec.epsilon = options.epsilon;
  spec.durability = &hub;

  AddressSpace parent;
  ShardedReallocator::Options facade_options;
  facade_options.shard_count = options.shard_count;
  facade_options.routing = RoutingPolicy::kHashId;
  facade_options.subrange_span = options.subrange_span;
  facade_options.rebalance = options.rebalance;
  facade_options.rebalance_options = AggressiveRebalance();
  std::unique_ptr<ShardedReallocator> facade;
  COSR_RETURN_IF_ERROR(
      ShardedReallocator::Make(spec, facade_options, &parent, &facade));
  // Per-shard checkpoint-time snapshots, keyed by sequence number.
  std::vector<std::map<std::uint64_t, StateSnapshot>> snapshots(
      options.shard_count);
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    const std::uint64_t base = std::uint64_t{i} * options.subrange_span;
    const std::uint64_t end = base + options.subrange_span;
    facade->shard_manager(i)->SetCheckpointHook(
        [&snapshots, &parent, i, base, end](std::uint64_t seq) {
          snapshots[i][seq] = FilterRange(parent.Snapshot(), base, end);
        });
  }

  for (std::size_t r = 0; r < operations; ++r) {
    const Request& request = trace.requests()[r];
    const Status status = request.type == Request::Type::kInsert
                              ? facade->Insert(request.id, request.size)
                              : facade->Delete(request.id);
    if (!status.ok()) {
      return Status::Internal("request " + std::to_string(r) +
                              " failed during the drive phase: " +
                              status.ToString());
    }
  }
  facade->Quiesce();
  // Force a final durable point so every log ends on a checkpoint record
  // and a full-log recovery reproduces the final state.
  facade->CheckpointAll();
  report->migrations = facade->Stats().migrations;

  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    report->checkpoints += snapshots[i].size();
  }
  report->log_records = hub.total_records();
  report->log_bytes = hub.total_bytes();
  report->syncs = hub.total_syncs();
  report->compactions = hub.total_compactions();

  for (std::uint32_t i = 0; i < hub.log_count(); ++i) {
    const MemoryLogSink* sink = hub.memory_sink(i);
    if (sink == nullptr) continue;
    COSR_RETURN_IF_ERROR(
        FuzzShardLog(options, i, *sink, snapshots[i], report));
  }
  report->crash_points = report->boundary_points + report->torn_points +
                         report->mid_batch_points;
  return Status::Ok();
}

Status FindFuzzTrace(const std::string& name, Trace* out) {
  ScenarioBatteryOptions battery_options = ScenarioBatteryOptions::Smoke();
  for (const Scenario& scenario : MakeScenarioBattery(battery_options)) {
    if (scenario.name == name) {
      *out = scenario.trace;
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown scenario: " + name);
}

Status CompareDriverLogs(const Trace& trace, const DriverLogOptions& options,
                         DriverLogReport* report) {
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint64_t kSpan = 1ull << 22;
  constexpr std::size_t kCheckpointEvery = 200;
  *report = DriverLogReport{};
  DurabilityHub::Options hub_options;
  hub_options.group_commit = options.group_commit;
  DurabilityHub inline_hub(hub_options);
  DurabilityHub threaded_hub(hub_options);
  ReallocatorSpec spec;
  spec.algorithm = options.algorithm;

  AddressSpace parent;
  ShardedReallocator::Options inline_options;
  inline_options.shard_count = kShards;
  inline_options.subrange_span = kSpan;
  std::unique_ptr<ShardedReallocator> inline_driver;
  spec.durability = &inline_hub;
  COSR_RETURN_IF_ERROR(
      ShardedReallocator::Make(spec, inline_options, &parent, &inline_driver));
  ConcurrentShardedReallocator::Options threaded_options;
  threaded_options.shard_count = kShards;
  threaded_options.worker_threads = options.worker_threads;
  threaded_options.subrange_span = kSpan;
  std::unique_ptr<ConcurrentShardedReallocator> threaded;
  spec.durability = &threaded_hub;
  COSR_RETURN_IF_ERROR(
      ConcurrentShardedReallocator::Make(spec, threaded_options, &threaded));

  const std::vector<Request>& requests = trace.requests();
  const std::size_t operations = std::min(options.operations, requests.size());
  for (std::size_t r = 0; r < operations;) {
    // A chunk never spans a checkpoint, so both drivers checkpoint after
    // the same request.
    const std::size_t n =
        std::min({std::max<std::size_t>(options.chunk, 1), operations - r,
                  kCheckpointEvery - r % kCheckpointEvery});
    for (std::size_t i = r; i < r + n; ++i) {
      const Request& request = requests[i];
      const Status status =
          request.type == Request::Type::kInsert
              ? inline_driver->Insert(request.id, request.size)
              : inline_driver->Delete(request.id);
      if (!status.ok()) {
        return Status::Internal("inline request " + std::to_string(i) +
                                " failed: " + status.ToString());
      }
    }
    std::size_t accepted = n;
    const Status submitted =
        options.chunk == 0
            ? threaded->Submit(requests[r])
            : threaded->SubmitMany(requests.data() + r, n, &accepted);
    if (!submitted.ok() || accepted != n) {
      return Status::Internal("threaded submission at request " +
                              std::to_string(r) +
                              " failed: " + submitted.ToString());
    }
    r += n;
    if (r % kCheckpointEvery == 0) {
      inline_driver->CheckpointAll();
      threaded->CheckpointAll();
    }
  }
  inline_driver->Quiesce();
  inline_driver->CheckpointAll();
  threaded->Quiesce();
  threaded->CheckpointAll();
  const ShardStats stats = threaded->Stats();

  const auto same_stream = [](const MemoryLogSink::DiscardedStream& a,
                              const MemoryLogSink::DiscardedStream& b) {
    return a.data == b.data && a.record_ends == b.record_ends &&
           a.synced_size == b.synced_size;
  };
  for (std::uint32_t i = 0; i < kShards; ++i) {
    const std::string shard = "shard " + std::to_string(i) + ": ";
    const MemoryLogSink& a = *inline_hub.memory_sink(i);
    const MemoryLogSink& b = *threaded_hub.memory_sink(i);
    if (stats.shards[i].failed_ops != 0) {
      return Status::Internal(shard + "the threaded driver failed ops");
    }
    if (a.data() != b.data() || a.record_ends() != b.record_ends()) {
      return Status::Internal(shard + "live log streams differ");
    }
    if (!std::equal(a.discarded_streams().begin(),
                    a.discarded_streams().end(),
                    b.discarded_streams().begin(),
                    b.discarded_streams().end(), same_stream)) {
      return Status::Internal(shard + "retired log streams differ");
    }
    if (a.sync_count() != b.sync_count() ||
        inline_hub.log(i)->compactions() !=
            threaded_hub.log(i)->compactions() ||
        inline_hub.log(i)->checkpoints_logged() !=
            threaded_hub.log(i)->checkpoints_logged()) {
      return Status::Internal(shard +
                              "sync, compaction or checkpoint counts differ");
    }
    AddressSpace recovered;
    RecoveryResult result;
    COSR_RETURN_IF_ERROR(RecoveryManager::Recover(
        a.data().data(), a.data().size(), &recovered, &result));
    if (result.records_discarded != 0 ||
        !(recovered.Snapshot() == threaded->shard_space(i).Snapshot())) {
      return Status::Internal(shard + "the live log does not recover the "
                              "threaded shard's objects");
    }
    report->retired_streams += a.discarded_streams().size();
  }
  report->records = inline_hub.total_records();
  report->bytes = inline_hub.total_bytes();
  report->syncs = inline_hub.total_syncs();
  report->compactions = inline_hub.total_compactions();
  report->checkpoints = inline_hub.total_checkpoints();
  return Status::Ok();
}

}  // namespace cosr
