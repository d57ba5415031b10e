#include "cosr/durability/crash_fuzz.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cosr/common/random.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/durability/fault_injector.h"
#include "cosr/durability/log_record.h"
#include "cosr/durability/recovery_manager.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/concurrent_sharded_reallocator.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/simulated_disk.h"
#include "cosr/workload/scenario.h"

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

Status FindTrace(const std::string& name, Trace* out) {
  ScenarioBatteryOptions battery_options = ScenarioBatteryOptions::Smoke();
  for (const Scenario& scenario : MakeScenarioBattery(battery_options)) {
    if (scenario.name == name) {
      *out = scenario.trace;
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown scenario: " + name);
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
  if (options.concurrent && options.rebalance) {
    return Status::InvalidArgument(
        "the threaded driver routes by hash only and never rebalances; "
        "rebalance needs concurrent = false");
  }

  Trace trace;
  COSR_RETURN_IF_ERROR(FindTrace(options.scenario, &trace));
  const std::size_t operations =
      std::min(options.operations, trace.requests().size());

  DurabilityHub::Options hub_options;
  hub_options.group_commit = options.group_commit;
  DurabilityHub hub(hub_options);
  ReallocatorSpec spec;
  spec.algorithm = options.algorithm;
  spec.epsilon = options.epsilon;
  spec.durability = &hub;

  // Per-shard checkpoint-time snapshots, keyed by sequence number. Written
  // by the thread driving the shard (the fuzz thread, or the worker holding
  // the shard's claim in concurrent mode — one writer per map at a time,
  // each drain ordered after the last); read after the facade drains.
  std::vector<std::map<std::uint64_t, StateSnapshot>> snapshots(
      options.shard_count);

  // The facades differ in construction and snapshot source, but the drive
  // loop and the fault phase are identical.
  AddressSpace parent;  // sharded (shared-parent) mode only
  std::unique_ptr<ShardedReallocator> sharded;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  Reallocator* facade = nullptr;

  if (!options.concurrent) {
    ShardedReallocator::Options facade_options;
    facade_options.shard_count = options.shard_count;
    facade_options.routing = RoutingPolicy::kHashId;
    facade_options.subrange_span = options.subrange_span;
    facade_options.rebalance = options.rebalance;
    facade_options.rebalance_options = AggressiveRebalance();
    COSR_RETURN_IF_ERROR(
        ShardedReallocator::Make(spec, facade_options, &parent, &sharded));
    for (std::uint32_t i = 0; i < options.shard_count; ++i) {
      const std::uint64_t base = std::uint64_t{i} * options.subrange_span;
      const std::uint64_t end = base + options.subrange_span;
      sharded->shard_manager(i)->SetCheckpointHook(
          [&snapshots, &parent, i, base, end](std::uint64_t seq) {
            snapshots[i][seq] = FilterRange(parent.Snapshot(), base, end);
          });
    }
    facade = sharded.get();
  } else {
    ConcurrentShardedReallocator::Options facade_options;
    facade_options.shard_count = options.shard_count;
    facade_options.worker_threads = options.worker_threads;
    facade_options.routing = RoutingPolicy::kHashId;
    facade_options.subrange_span = options.subrange_span;
    COSR_RETURN_IF_ERROR(
        ConcurrentShardedReallocator::Make(spec, facade_options, &concurrent));
    ConcurrentShardedReallocator* raw = concurrent.get();
    for (std::uint32_t i = 0; i < options.shard_count; ++i) {
      raw->shard_manager(i)->SetCheckpointHook(
          [&snapshots, raw, i](std::uint64_t seq) {
            // Fires on the worker holding shard i's claim; the private
            // root is only ever touched under that claim, so the read is
            // race-free.
            snapshots[i][seq] = raw->shard_space(i).Snapshot();
          });
    }
    facade = concurrent.get();
  }

  if (options.batched_submission) {
    if (concurrent == nullptr) {
      return Status::InvalidArgument(
          "batched_submission requires concurrent mode");
    }
    // Batched drive: the same trace prefix through SubmitMany over the
    // lock-free remote queues. Fire-and-forget, so per-op statuses land
    // in failed_ops — checked after the drain (a valid trace from one
    // producer must execute cleanly on both paths).
    constexpr std::size_t kChunk = 32;
    const std::vector<Request>& requests = trace.requests();
    for (std::size_t r = 0; r < operations; r += kChunk) {
      const std::size_t n = std::min(kChunk, operations - r);
      std::size_t accepted = 0;
      const Status status =
          concurrent->SubmitMany(requests.data() + r, n, &accepted);
      if (!status.ok() || accepted != n) {
        return Status::Internal(
            "batch at request " + std::to_string(r) +
            " failed during the drive phase: " + status.ToString());
      }
    }
    concurrent->Flush();
    const ShardStats stats = concurrent->Stats();
    for (std::uint32_t i = 0; i < options.shard_count; ++i) {
      if (stats.shards[i].failed_ops != 0) {
        return Status::Internal(
            "shard " + std::to_string(i) + " reported " +
            std::to_string(stats.shards[i].failed_ops) +
            " failed ops during the batched drive phase");
      }
    }
  } else {
    for (std::size_t r = 0; r < operations; ++r) {
      const Request& request = trace.requests()[r];
      const Status status =
          request.type == Request::Type::kInsert
              ? facade->Insert(request.id, request.size)
              : facade->Delete(request.id);
      if (!status.ok()) {
        return Status::Internal("request " + std::to_string(r) +
                                " failed during the drive phase: " +
                                status.ToString());
      }
    }
  }
  facade->Quiesce();
  // Force a final durable point so every log ends on a checkpoint record
  // and a full-log recovery reproduces the final state.
  if (sharded != nullptr) {
    sharded->CheckpointAll();
    report->migrations = sharded->Stats().migrations;
  } else {
    concurrent->CheckpointAll();
  }

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

}  // namespace cosr
