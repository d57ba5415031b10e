#include "cosr/service/shard_engine.h"

#include <algorithm>
#include <utility>

#include "cosr/common/check.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/durability/move_log.h"
#include "cosr/metrics/latency_histogram.h"
#include "cosr/realloc/factory.h"

namespace cosr {

/// The inline driver's log adapter: the one listener on the shared parent,
/// handing each storage event to the log of the shard whose op is
/// executing. Every event an op causes lies in that shard's sub-range, so
/// whole OnMoves batches forward unfiltered. Events outside any op belong
/// to no shard and are dropped. Checkpoint records flow through each
/// shard's own CheckpointManager instead (the parent's OnCheckpoint
/// fan-out carries no per-shard sequence number).
class ShardEngine::ExecutingShardLog final : public SpaceListener {
 public:
  void OnPlace(ObjectId id, const Extent& extent) override {
    if (target != nullptr) target->OnPlace(id, extent);
  }
  void OnMove(ObjectId id, const Extent& from, const Extent& to) override {
    if (target != nullptr) target->OnMove(id, from, to);
  }
  void OnMoves(const MoveRecord* records, std::size_t count) override {
    if (target != nullptr) target->OnMoves(records, count);
  }
  void OnRemove(ObjectId id, const Extent& extent) override {
    if (target != nullptr) target->OnRemove(id, extent);
  }

  MoveLog* target = nullptr;
};

ShardEngine::ShardEngine() = default;

ShardEngine::~ShardEngine() {
  if (log_forwarder_ != nullptr) {
    shards_.front().root->RemoveListener(log_forwarder_.get());
  }
}

Status ShardEngine::Init(const ReallocatorSpec& spec, const Options& options,
                         Mode mode, const std::vector<Space*>& roots) {
  const std::uint32_t shard_count = options.shard_count;
  if (shard_count == 0) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  if (options.subrange_span == 0 ||
      options.subrange_span > ~std::uint64_t{0} / shard_count) {
    return Status::InvalidArgument("subrange_span degenerate for K shards");
  }
  COSR_CHECK_EQ(roots.size(), mode == Mode::kInline ? 1u : shard_count);
  for (Space* root : roots) {
    COSR_CHECK(root != nullptr);
    if (root->checkpoint_manager() != nullptr) {
      return Status::FailedPrecondition(
          "sharded parent space must not carry a CheckpointManager; each "
          "shard scopes its own");
    }
  }
  DurabilityHub* durability = spec.durability;
  if (durability != nullptr &&
      !AlgorithmNeedsCheckpointManager(spec.algorithm)) {
    return Status::FailedPrecondition(
        "durability requires a checkpoint-managed algorithm "
        "(checkpointed/deamortized); " +
        spec.algorithm + " never checkpoints, so its log would have "
        "no recoverable prefix");
  }

  ReallocatorSpec inner_spec = spec;
  inner_spec.shard_count = 1;  // the engine is the only sharding layer
  inner_spec.durability = nullptr;  // per-shard wiring happens here

  mode_ = mode;
  counters_ = std::vector<ShardCounters>(shard_count);
  shards_.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    Shard shard;
    shard.root = roots[mode == Mode::kInline ? 0 : i];
    if (AlgorithmNeedsCheckpointManager(inner_spec.algorithm)) {
      shard.manager = std::make_unique<CheckpointManager>();
    }
    shard.view = std::make_unique<SubSpaceView>(
        shard.root, std::uint64_t{i} * options.subrange_span,
        options.subrange_span, shard.manager.get());
    shard.record.base = shard.view->base();
    COSR_RETURN_IF_ERROR(
        MakeReallocator(inner_spec, shard.view.get(), &shard.inner));
    if (durability != nullptr) {
      shard.log = durability->LogForShard(i);
      shard.manager->AttachDurabilityLog(shard.log);
      // Records are in root coordinates, and the shard's range of its root
      // holds exactly the objects its log journals.
      shard.log->BindSpace(shard.root, shard.view->base(),
                           shard.view->base() + shard.view->span());
      // A private root sees only its own shard's events, so its log
      // attaches directly; the shared parent gets the forwarder below.
      if (mode == Mode::kThreaded) shard.root->AddListener(shard.log);
    }
    shards_.push_back(std::move(shard));
  }
  if (durability != nullptr && mode == Mode::kInline) {
    log_forwarder_ = std::make_unique<ExecutingShardLog>();
    roots.front()->AddListener(log_forwarder_.get());
  }
  return Status::Ok();
}

void ShardEngine::SelectLog(MoveLog* log) {
  if (log_forwarder_ != nullptr) log_forwarder_->target = log;
}

void ShardEngine::StoreGauges(std::uint32_t index) {
  const Reallocator& inner = *shards_[index].inner;
  ShardCounters& gauges = counters_[index];
  ShardStats::PerShard& record = shards_[index].record;
  const std::uint64_t reserved = inner.reserved_footprint();
  gauges.volume.store(inner.volume(), std::memory_order_relaxed);
  gauges.reserved_footprint.store(reserved, std::memory_order_relaxed);
  record.peak_reserved_footprint =
      std::max(record.peak_reserved_footprint, reserved);
}

std::uint64_t ShardEngine::Execute(std::uint32_t index, const ShardOp& op,
                                   std::uint64_t start_ns, Status* status) {
  Shard& shard = shards_[index];
  ShardStats::PerShard& record = shard.record;
  const bool is_request =
      op.kind == ShardOpKind::kInsert || op.kind == ShardOpKind::kDelete;
  SelectLog(shard.log);
  switch (op.kind) {
    case ShardOpKind::kInsert:
      *status = shard.inner->Insert(op.id, op.size);
      break;
    case ShardOpKind::kDelete:
      *status = shard.inner->Delete(op.id);
      break;
    case ShardOpKind::kQuiesce:
      shard.inner->Quiesce();
      break;
    case ShardOpKind::kCheckpoint:
      if (shard.manager != nullptr) shard.view->Checkpoint();
      break;
    case ShardOpKind::kSnapshot:
      *op.snapshot_out = Snapshot(index);
      break;
  }
  SelectLog(nullptr);
  if (op.kind != ShardOpKind::kCheckpoint &&
      op.kind != ShardOpKind::kSnapshot) {
    StoreGauges(index);
  }
  if (is_request) {
    ++record.ops;
    if (!status->ok()) ++record.failed_ops;
  }
  const std::uint64_t end_ns = MonotonicNanos();
  // Only requests feed the latency histograms: internal ops have no
  // submitter waiting on them, and excluding them keeps
  // `latency count == ops` an exact identity.
  if (!is_request) return end_ns;
  record.latency_service.Record(SaturatingElapsed(end_ns, start_ns));
  if (mode_ == Mode::kThreaded) {
    record.latency_queue_wait.Record(SaturatingElapsed(start_ns, op.submit_ns));
    record.latency_total.Record(SaturatingElapsed(end_ns, op.submit_ns));
  }
  return end_ns;
}

bool ShardEngine::Migrate(std::uint32_t from, std::uint32_t to, ObjectId id,
                          std::uint64_t length) {
  Shard& source = shards_[from];
  if (!source.inner->DeletesDetachImmediately()) return false;
  SelectLog(source.log);
  COSR_CHECK_OK(source.inner->Delete(id));
  ++source.record.migrations;
  source.record.migrated_bytes += length;
  StoreGauges(from);
  Shard& destination = shards_[to];
  SelectLog(destination.log);
  COSR_CHECK_OK(destination.inner->Insert(id, length));
  ++destination.record.migrations_in;
  StoreGauges(to);
  SelectLog(nullptr);
  return true;
}

ShardStats::PerShard ShardEngine::Snapshot(std::uint32_t index) const {
  const Shard& shard = shards_[index];
  ShardStats::PerShard per = shard.record;
  per.objects = shard.view->object_count();
  per.volume = shard.view->live_volume();
  per.reserved_footprint = shard.inner->reserved_footprint();
  per.space_footprint = shard.view->footprint();
  per.checkpoints =
      shard.manager != nullptr ? shard.manager->checkpoint_count() : 0;
  if (shard.log != nullptr) {
    const LogSink& sink = *shard.log->sink();
    per.log_syncs = sink.sync_count();
    per.log_compactions = shard.log->compactions();
    per.sync_wall_seconds = sink.sync_wall_seconds();
    per.max_sync_stall_seconds = sink.max_sync_stall_seconds();
  }
  // Inline ops never queue: their total latency is the service time.
  if (mode_ == Mode::kInline) per.latency_total = per.latency_service;
  return per;
}

ShardStats ShardEngine::MergeStats(std::vector<ShardStats::PerShard> shards) {
  ShardStats stats;
  for (const ShardStats::PerShard& per : shards) {
    stats.volume += per.volume;
    stats.sum_reserved_footprint += per.reserved_footprint;
    stats.sum_subrange_footprint += per.space_footprint;
    stats.max_shard_end = std::max(stats.max_shard_end, per.space_footprint);
    // Only shards place into the parent, so its literal footprint is the
    // highest non-empty shard's global end, in both modes.
    if (per.space_footprint > 0) {
      stats.global_max_end =
          std::max(stats.global_max_end, per.base + per.space_footprint);
    }
    stats.migrations += per.migrations;
    stats.migrated_bytes += per.migrated_bytes;
    stats.log_syncs += per.log_syncs;
    stats.log_compactions += per.log_compactions;
    stats.sync_wall_seconds += per.sync_wall_seconds;
    stats.max_sync_stall_seconds =
        std::max(stats.max_sync_stall_seconds, per.max_sync_stall_seconds);
    stats.latency_total.MergeFrom(per.latency_total);
    stats.latency_queue_wait.MergeFrom(per.latency_queue_wait);
    stats.latency_service.MergeFrom(per.latency_service);
  }
  stats.shards = std::move(shards);
  return stats;
}

std::uint64_t ShardEngine::reserved_footprint() const {
  std::uint64_t sum = 0;
  for (const ShardCounters& c : counters_) {
    sum += c.reserved_footprint.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t ShardEngine::volume() const {
  std::uint64_t sum = 0;
  for (const ShardCounters& c : counters_) {
    sum += c.volume.load(std::memory_order_relaxed);
  }
  return sum;
}

}  // namespace cosr
