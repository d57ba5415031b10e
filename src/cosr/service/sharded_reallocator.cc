#include "cosr/service/sharded_reallocator.h"

#include <utility>
#include <vector>

#include "cosr/common/check.h"
#include "cosr/metrics/latency_histogram.h"

namespace cosr {

Status ShardedReallocator::Make(const ReallocatorSpec& inner_spec,
                                const Options& options, Space* parent,
                                std::unique_ptr<ShardedReallocator>* out) {
  if (parent == nullptr || out == nullptr) {
    return Status::InvalidArgument("parent and out must be non-null");
  }
  if (options.rebalance &&
      AlgorithmInsertCanFailOnFreshId(inner_spec.algorithm)) {
    return Status::FailedPrecondition(
        inner_spec.algorithm +
        " inserts can fail on a fresh id, and a migration's destination "
        "insert must not fail; rebalance needs another algorithm");
  }
  auto sharded = std::unique_ptr<ShardedReallocator>(new ShardedReallocator());
  COSR_RETURN_IF_ERROR(sharded->engine_.Init(
      inner_spec, options, ShardEngine::Mode::kInline, {parent}));
  sharded->options_ = options;
  sharded->keeps_map_ =
      options.routing != RoutingPolicy::kHashId || options.rebalance;
  sharded->name_ = "sharded[" + std::to_string(options.shard_count) + "," +
                   RoutingPolicyName(options.routing) + "]/" +
                   inner_spec.algorithm;
  *out = std::move(sharded);
  return Status::Ok();
}

std::uint32_t ShardedReallocator::shard_for(ObjectId id,
                                            std::uint64_t size) const {
  if (options_.routing != RoutingPolicy::kLeastLoaded) {
    return RouteToShard(options_.routing, shard_count(), id, size);
  }
  // The volume gauges are exact here: this thread wrote every one. The
  // lowest index wins ties, so the choice is deterministic.
  std::uint32_t best = 0;
  std::uint64_t best_volume = engine_.counters(0).volume.load(
      std::memory_order_relaxed);
  for (std::uint32_t i = 1; i < shard_count(); ++i) {
    const std::uint64_t volume =
        engine_.counters(i).volume.load(std::memory_order_relaxed);
    if (volume < best_volume) {
      best = i;
      best_volume = volume;
    }
  }
  return best;
}

Status ShardedReallocator::ExecuteRequest(std::uint32_t shard,
                                          const ShardOp& op) {
  Status status;
  engine_.Execute(shard, op, MonotonicNanos(), &status);
  if (status.ok() && keeps_map_) {
    if (op.kind == ShardOpKind::kInsert) {
      placement_.Insert(op.id, shard);
    } else {
      placement_.Erase(op.id);
    }
  }
  if (options_.rebalance &&
      ++requests_since_scan_ >= options_.rebalance_options.check_interval) {
    requests_since_scan_ = 0;
    Rebalance();
  }
  return status;
}

void ShardedReallocator::Rebalance() {
  // Exact: this thread wrote every gauge.
  std::vector<std::uint64_t> footprints(shard_count());
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    footprints[i] =
        engine_.counters(i).reserved_footprint.load(std::memory_order_relaxed);
  }
  const RebalancePlan plan =
      PlanRebalance(footprints, options_.rebalance_options);
  if (!plan.has_move || !shard(plan.hot).DeletesDetachImmediately()) return;
  const std::vector<std::pair<ObjectId, Extent>> victims =
      SelectRebalanceVictims(shard_view(plan.hot).Snapshot(),
                             options_.rebalance_options,
                             shard(plan.hot).reserved_footprint(),
                             footprints[plan.cold], plan.target_footprint);
  for (const auto& [id, extent] : victims) {
    // Migrate re-checks the source per victim: the previous victim's
    // delete may itself have started a deferred flush.
    if (!engine_.Migrate(plan.hot, plan.cold, id, extent.length)) break;
    std::uint32_t* holder = placement_.Find(id);
    COSR_CHECK(holder != nullptr && *holder == plan.hot);
    *holder = plan.cold;
  }
}

Status ShardedReallocator::Insert(ObjectId id, std::uint64_t size) {
  owner_fence_.Assert("ShardedReallocator");
  if (keeps_map_) {
    // A live duplicate may be parked on a *different* shard (same id,
    // different size class or load), which that shard's reallocator cannot
    // detect.
    if (const std::uint32_t* holder = placement_.Find(id)) {
      return Status::AlreadyExists("object " + std::to_string(id) +
                                   " is live on shard " +
                                   std::to_string(*holder));
    }
  }
  ShardOp op;
  op.kind = ShardOpKind::kInsert;
  op.id = id;
  op.size = size;
  return ExecuteRequest(shard_for(id, size), op);
}

Status ShardedReallocator::Delete(ObjectId id) {
  owner_fence_.Assert("ShardedReallocator");
  std::uint32_t target;
  if (keeps_map_) {
    const std::uint32_t* holder = placement_.Find(id);
    if (holder == nullptr) {
      return Status::NotFound("object " + std::to_string(id) +
                              " is not live on any shard");
    }
    target = *holder;
  } else {
    target = shard_for(id, /*size=*/0);
  }
  ShardOp op;
  op.kind = ShardOpKind::kDelete;
  op.id = id;
  return ExecuteRequest(target, op);
}

void ShardedReallocator::ExecuteOnEveryShard(ShardOpKind kind) {
  owner_fence_.Assert("ShardedReallocator");
  ShardOp op;
  op.kind = kind;
  Status ignored;
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    engine_.Execute(i, op, 0, &ignored);
  }
}

std::uint32_t ShardedReallocator::shard_of(ObjectId id) const {
  if (keeps_map_) {
    const std::uint32_t* holder = placement_.Find(id);
    return holder != nullptr ? *holder : shard_count();
  }
  const std::uint32_t target = shard_for(id, /*size=*/0);
  return shard_view(target).contains(id) ? target : shard_count();
}

ShardStats ShardedReallocator::Stats() const {
  std::vector<ShardStats::PerShard> shards;
  shards.reserve(shard_count());
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    shards.push_back(engine_.Snapshot(i));
  }
  return ShardEngine::MergeStats(std::move(shards));
}

}  // namespace cosr
