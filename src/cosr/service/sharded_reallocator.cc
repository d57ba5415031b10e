#include "cosr/service/sharded_reallocator.h"

#include <algorithm>
#include <utility>

#include "cosr/common/check.h"
#include "cosr/durability/durability_hub.h"

namespace cosr {

Status ShardedReallocator::Make(const ReallocatorSpec& inner_spec,
                                const Options& options, Space* parent,
                                std::unique_ptr<ShardedReallocator>* out) {
  if (parent == nullptr || out == nullptr) {
    return Status::InvalidArgument("parent and out must be non-null");
  }
  if (options.shard_count == 0) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  if (options.subrange_span == 0 ||
      options.subrange_span >
          ~std::uint64_t{0} / options.shard_count) {
    return Status::InvalidArgument("subrange_span degenerate for K shards");
  }
  if (parent->checkpoint_manager() != nullptr) {
    return Status::FailedPrecondition(
        "sharded parent space must not carry a CheckpointManager; each "
        "shard scopes its own");
  }

  DurabilityHub* durability = inner_spec.durability;
  if (durability != nullptr &&
      !AlgorithmNeedsCheckpointManager(inner_spec.algorithm)) {
    return Status::FailedPrecondition(
        "durability requires a checkpoint-managed algorithm "
        "(checkpointed/deamortized); " +
        inner_spec.algorithm + " never checkpoints, so its log would have "
        "no recoverable prefix");
  }

  ReallocatorSpec spec = inner_spec;
  spec.shard_count = 1;  // the facade is the only sharding layer
  spec.durability = nullptr;  // per-shard wiring happens here, not inside

  auto sharded = std::unique_ptr<ShardedReallocator>(
      new ShardedReallocator(options, parent));
  sharded->needs_shard_map_ =
      RoutingNeedsPlacementMap(options.routing) || options.allow_migration;
  sharded->counters_.assign(options.shard_count, LocalCounters{});
  sharded->latency_ = std::vector<ShardLatencyRecorders>(options.shard_count);
  sharded->shards_.reserve(options.shard_count);
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    Shard shard;
    if (AlgorithmNeedsCheckpointManager(spec.algorithm)) {
      shard.manager = std::make_unique<CheckpointManager>();
    }
    shard.view = std::make_unique<SubSpaceView>(
        parent, std::uint64_t{i} * options.subrange_span,
        options.subrange_span, shard.manager.get());
    Status status = MakeReallocator(spec, shard.view.get(), &shard.inner);
    if (!status.ok()) return status;
    if (durability != nullptr) {
      // The parent's listener stream interleaves every shard's events;
      // scope log i to sub-range i. Checkpoint records flow through the
      // shard's own manager instead (the parent's OnCheckpoint fan-out
      // cannot attribute a checkpoint to a shard).
      MoveLog* log = durability->LogForShard(i);
      shard.log = log;
      shard.manager->AttachDurabilityLog(log);
      const std::uint64_t base = std::uint64_t{i} * options.subrange_span;
      sharded->log_scopes_.push_back(std::make_unique<RangeScopedListener>(
          log, base, base + options.subrange_span));
      parent->AddListener(sharded->log_scopes_.back().get());
    }
    sharded->shards_.push_back(std::move(shard));
  }
  sharded->name_ = "sharded[" + std::to_string(options.shard_count) + "," +
                   RoutingPolicyName(options.routing) + "]/" + spec.algorithm;
  *out = std::move(sharded);
  return Status::Ok();
}

ShardedReallocator::~ShardedReallocator() {
  for (const std::unique_ptr<RangeScopedListener>& scope : log_scopes_) {
    parent_->RemoveListener(scope.get());
  }
}

std::uint32_t ShardedReallocator::shard_for(ObjectId id,
                                            std::uint64_t size) const {
  if (options_.routing == RoutingPolicy::kLeastLoaded && shard_count() > 1) {
    // Live argmin over the shards' volumes (see the header for why volume,
    // not frontier) — no allocation, K is small.
    std::uint32_t best = 0;
    std::uint64_t best_load = shards_[0].inner->volume();
    for (std::uint32_t i = 1; i < shard_count(); ++i) {
      const std::uint64_t load = shards_[i].inner->volume();
      if (load < best_load) {
        best = i;
        best_load = load;
      }
    }
    return best;
  }
  return RouteToShard(options_.routing, shard_count(), id, size);
}

Status ShardedReallocator::Insert(ObjectId id, std::uint64_t size) {
  owner_fence_.Assert("ShardedReallocator");
  if (needs_shard_map_) {
    // A live duplicate may be parked on a *different* shard (same id,
    // different size class or load), which that shard's reallocator cannot
    // detect.
    const std::uint32_t holder = placement_.Lookup(id, shard_count());
    if (holder != shard_count()) {
      return Status::AlreadyExists("object " + std::to_string(id) +
                                   " is live on shard " +
                                   std::to_string(holder));
    }
  }
  const std::uint32_t target = shard_for(id, size);
  const std::uint64_t start_ns = MonotonicNanos();
  Status status = shards_[target].inner->Insert(id, size);
  const std::uint64_t elapsed =
      SaturatingElapsed(MonotonicNanos(), start_ns);
  latency_[target].service.Record(elapsed);
  ++counters_[target].ops;
  if (status.ok() && needs_shard_map_) placement_.TryAssign(id, target);
  return status;
}

Status ShardedReallocator::Delete(ObjectId id) {
  owner_fence_.Assert("ShardedReallocator");
  std::uint32_t target;
  if (needs_shard_map_) {
    target = placement_.Lookup(id, shard_count());
    if (target == shard_count()) {
      return Status::NotFound("object " + std::to_string(id) +
                              " is not live on any shard");
    }
  } else {
    target = shard_for(id, /*size=*/0);
  }
  const std::uint64_t start_ns = MonotonicNanos();
  Status status = shards_[target].inner->Delete(id);
  const std::uint64_t elapsed =
      SaturatingElapsed(MonotonicNanos(), start_ns);
  latency_[target].service.Record(elapsed);
  ++counters_[target].ops;
  if (status.ok() && needs_shard_map_) placement_.Erase(id);
  return status;
}

Status ShardedReallocator::MigrateObject(ObjectId id, std::uint32_t to) {
  owner_fence_.Assert("ShardedReallocator");
  if (to >= shard_count()) {
    return Status::InvalidArgument("destination shard " + std::to_string(to) +
                                   " out of range");
  }
  if (!needs_shard_map_) {
    return Status::FailedPrecondition(
        "facade keeps no placement map, so a migrated id's shard could "
        "never be resolved again; build with Options::allow_migration or a "
        "map-keeping routing policy");
  }
  const std::uint32_t from = placement_.Lookup(id, shard_count());
  if (from == shard_count()) {
    return Status::NotFound("object " + std::to_string(id) +
                            " is not live on any shard");
  }
  if (from == to) return Status::Ok();
  if (!shards_[from].inner->DeletesDetachImmediately()) {
    // The source would defer the physical remove (deamortized mid-flush),
    // leaving the id placed on the shared parent when the destination
    // re-places it. Migration waits for the flush to drain.
    return Status::FailedPrecondition(
        "source shard " + std::to_string(from) +
        " defers deletes while its flush drains; retry after it quiesces");
  }
  const std::uint64_t size = shards_[from].view->extent_of(id).length;
  // Shared parent: the source's Delete must retire before the
  // destination's Insert, or the parent would see the same id placed
  // twice. Each inner call rides its own shard's view, checkpoint
  // discipline, and durability log — remove journals on the source's log,
  // place on the destination's.
  COSR_RETURN_IF_ERROR(shards_[from].inner->Delete(id));
  Status placed = shards_[to].inner->Insert(id, size);
  if (!placed.ok()) {
    // Restore: the source just freed at least `size`, so re-inserting
    // there cannot fail.
    COSR_CHECK_OK(shards_[from].inner->Insert(id, size));
    return placed;
  }
  placement_.Reassign(id, from, to);
  ++counters_[from].migrations;
  counters_[from].migrated_bytes += size;
  ++counters_[to].migrations_in;
  return Status::Ok();
}

std::uint64_t ShardedReallocator::reserved_footprint() const {
  std::uint64_t sum = 0;
  for (const Shard& shard : shards_) sum += shard.inner->reserved_footprint();
  return sum;
}

std::uint64_t ShardedReallocator::volume() const {
  std::uint64_t sum = 0;
  for (const Shard& shard : shards_) sum += shard.inner->volume();
  return sum;
}

void ShardedReallocator::Quiesce() {
  owner_fence_.Assert("ShardedReallocator");
  for (Shard& shard : shards_) shard.inner->Quiesce();
}

void ShardedReallocator::CheckpointAll() {
  owner_fence_.Assert("ShardedReallocator");
  for (Shard& shard : shards_) {
    if (shard.manager != nullptr) shard.view->Checkpoint();
  }
}

std::uint32_t ShardedReallocator::shard_of(ObjectId id) const {
  if (needs_shard_map_) {
    return placement_.Lookup(id, shard_count());
  }
  const std::uint32_t target = shard_for(id, /*size=*/0);
  return shards_[target].view->contains(id) ? target : shard_count();
}

ShardStats ShardedReallocator::Stats() const {
  ShardStats stats;
  stats.shards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = shards_[i];
    ShardStats::PerShard per;
    per.base = shard.view->base();
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
    per.ops = counters_[i].ops;
    per.migrations = counters_[i].migrations;
    per.migrated_bytes = counters_[i].migrated_bytes;
    per.migrations_in = counters_[i].migrations_in;
    // No queue: an op's total latency is its service time, recorded once.
    per.latency_service = latency_[i].service.Snapshot();
    per.latency_total = per.latency_service;
    per.latency_queue_wait = latency_[i].queue_wait.Snapshot();
    stats.latency_total.MergeFrom(per.latency_total);
    stats.latency_queue_wait.MergeFrom(per.latency_queue_wait);
    stats.latency_service.MergeFrom(per.latency_service);
    stats.volume += per.volume;
    stats.sum_reserved_footprint += per.reserved_footprint;
    stats.sum_subrange_footprint += per.space_footprint;
    stats.max_shard_end = std::max(stats.max_shard_end, per.space_footprint);
    stats.migrations += per.migrations;
    stats.migrated_bytes += per.migrated_bytes;
    stats.log_syncs += per.log_syncs;
    stats.log_compactions += per.log_compactions;
    stats.sync_wall_seconds += per.sync_wall_seconds;
    stats.max_sync_stall_seconds =
        std::max(stats.max_sync_stall_seconds, per.max_sync_stall_seconds);
    stats.shards.push_back(per);
  }
  stats.global_max_end = parent_->footprint();
  return stats;
}

}  // namespace cosr
