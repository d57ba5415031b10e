#include "cosr/service/sharded_reallocator.h"

#include "cosr/metrics/latency_histogram.h"

namespace cosr {

Status ShardedReallocator::Make(const ReallocatorSpec& inner_spec,
                                const Options& options, Space* parent,
                                std::unique_ptr<ShardedReallocator>* out) {
  if (parent == nullptr || out == nullptr) {
    return Status::InvalidArgument("parent and out must be non-null");
  }
  auto sharded = std::unique_ptr<ShardedReallocator>(new ShardedReallocator());
  COSR_RETURN_IF_ERROR(sharded->engine_.Init(
      inner_spec, options, ShardEngine::Mode::kInline, {parent}));
  sharded->name_ = "sharded[" + std::to_string(options.shard_count) + "," +
                   RoutingPolicyName(options.routing) + "]/" +
                   inner_spec.algorithm;
  *out = std::move(sharded);
  return Status::Ok();
}

std::uint32_t ShardedReallocator::shard_for(ObjectId id,
                                            std::uint64_t size) const {
  if (engine_.options().routing == RoutingPolicy::kLeastLoaded) {
    // The volume gauges are exact here: this thread wrote every one.
    loads_.resize(shard_count());
    for (std::uint32_t i = 0; i < shard_count(); ++i) {
      loads_[i] = engine_.counters(i).volume.load(std::memory_order_relaxed);
    }
  }
  return engine_.Route(id, size, loads_);
}

Status ShardedReallocator::ExecuteRequest(std::uint32_t shard,
                                          const ShardOp& op) {
  Status status;
  engine_.Execute(shard, op, MonotonicNanos(), &status);
  if (status.ok() && engine_.keeps_map()) {
    if (op.kind == ShardOpKind::kInsert) {
      engine_.placement().TryAssign(op.id, shard);
    } else {
      engine_.placement().Erase(op.id);
    }
  }
  if (engine_.options().rebalance &&
      ++requests_since_scan_ >=
          engine_.options().rebalance_options.check_interval) {
    requests_since_scan_ = 0;
    const RebalancePlan plan = engine_.PlanScan(&victims_);
    const std::size_t moved = engine_.MigrateOut(plan, victims_);
    for (std::size_t i = 0; i < moved; ++i) {
      ShardOp arrival;
      arrival.kind = ShardOpKind::kMigrateIn;
      arrival.id = victims_[i].first;
      arrival.size = victims_[i].second.length;
      Status ignored;
      engine_.Execute(plan.cold, arrival, 0, &ignored);
    }
  }
  return status;
}

Status ShardedReallocator::Insert(ObjectId id, std::uint64_t size) {
  owner_fence_.Assert("ShardedReallocator");
  if (engine_.keeps_map()) {
    // A live duplicate may be parked on a *different* shard (same id,
    // different size class or load), which that shard's reallocator cannot
    // detect.
    const std::uint32_t holder = engine_.placement().Lookup(id, shard_count());
    if (holder != shard_count()) {
      return Status::AlreadyExists("object " + std::to_string(id) +
                                   " is live on shard " +
                                   std::to_string(holder));
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
  if (engine_.keeps_map()) {
    target = engine_.placement().Lookup(id, shard_count());
    if (target == shard_count()) {
      return Status::NotFound("object " + std::to_string(id) +
                              " is not live on any shard");
    }
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
  if (engine_.keeps_map()) {
    return engine_.placement().Lookup(id, shard_count());
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
