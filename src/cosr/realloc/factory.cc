#include "cosr/realloc/factory.h"

#include <algorithm>

#include "cosr/alloc/best_fit_allocator.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/alloc/buddy_allocator.h"
#include "cosr/alloc/first_fit_allocator.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/realloc/compacting_oracle.h"
#include "cosr/realloc/logging_compacting_reallocator.h"
#include "cosr/realloc/packed_memory_array.h"
#include "cosr/realloc/size_class_reallocator.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/service/sub_space_view.h"

namespace cosr {

namespace {

/// Binds `log`'s compaction source to the objects of `space` in the
/// coordinates of its records. Views forward listeners to their parents,
/// so records are in root coordinates: walk up the view chain, translating
/// the covered range into each parent.
void BindLogToRoot(MoveLog* log, Space* space) {
  std::uint64_t lo = 0;
  std::uint64_t hi = ~std::uint64_t{0};
  while (const auto* view = dynamic_cast<const SubSpaceView*>(space)) {
    lo = view->base() + std::min(lo, view->span());
    hi = view->base() + std::min(hi, view->span());
    space = view->parent();
  }
  log->BindSpace(space, lo, hi);
}

}  // namespace

const std::vector<std::string>& KnownAlgorithms() {
  static const std::vector<std::string>& algorithms =
      *new std::vector<std::string>{
          "first-fit",   "best-fit",       "buddy",
          "log-compact", "size-class",     "pma",
          "oracle",      "cost-oblivious", "checkpointed",
          "deamortized"};
  return algorithms;
}

bool AlgorithmNeedsCheckpointManager(const std::string& algorithm) {
  return algorithm == "checkpointed" || algorithm == "deamortized";
}

bool AlgorithmInsertCanFailOnFreshId(const std::string& algorithm) {
  return algorithm == "pma";
}

Status MakeReallocator(const ReallocatorSpec& spec, Space* space,
                       std::unique_ptr<Reallocator>* out) {
  if (space == nullptr || out == nullptr) {
    return Status::InvalidArgument("space and out must be non-null");
  }
  if (spec.shard_count > 1) {
    ShardedReallocator::Options options;
    options.shard_count = spec.shard_count;
    options.routing = spec.routing;
    std::unique_ptr<ShardedReallocator> sharded;
    Status status = ShardedReallocator::Make(spec, options, space, &sharded);
    if (!status.ok()) return status;
    *out = std::move(sharded);
    return Status::Ok();
  }
  const bool managed = space->checkpoint_manager() != nullptr;
  if (AlgorithmNeedsCheckpointManager(spec.algorithm) && !managed) {
    return Status::FailedPrecondition(
        spec.algorithm + " requires a CheckpointManager on the space");
  }
  if (spec.durability != nullptr) {
    // Single-instance durability wiring: log 0 observes the space and the
    // manager's checkpoints. (ShardEngine wires per-shard logs itself and
    // clears this field before building its inners.)
    if (!AlgorithmNeedsCheckpointManager(spec.algorithm)) {
      return Status::FailedPrecondition(
          "durability requires a checkpoint-managed algorithm "
          "(checkpointed/deamortized); " +
          spec.algorithm + " never checkpoints, so its log would have no "
          "recoverable prefix");
    }
    MoveLog* log = spec.durability->LogForShard(0);
    space->checkpoint_manager()->AttachDurabilityLog(log);
    space->AddListener(log);
    BindLogToRoot(log, space);
  }
  if (!AlgorithmNeedsCheckpointManager(spec.algorithm) && managed &&
      (spec.algorithm == "cost-oblivious" || spec.algorithm == "log-compact" ||
       spec.algorithm == "oracle")) {
    return Status::FailedPrecondition(
        spec.algorithm +
        " uses overlapping slides; detach the CheckpointManager");
  }
  if (spec.algorithm == "first-fit") {
    *out = std::make_unique<FirstFitAllocator>(space);
  } else if (spec.algorithm == "best-fit") {
    *out = std::make_unique<BestFitAllocator>(space);
  } else if (spec.algorithm == "buddy") {
    *out = std::make_unique<BuddyAllocator>(space);
  } else if (spec.algorithm == "log-compact") {
    *out = std::make_unique<LoggingCompactingReallocator>(space);
  } else if (spec.algorithm == "size-class") {
    *out = std::make_unique<SizeClassReallocator>(space);
  } else if (spec.algorithm == "pma") {
    *out = std::make_unique<PackedMemoryArray>(space);
  } else if (spec.algorithm == "oracle") {
    *out = std::make_unique<CompactingOracle>(space);
  } else if (spec.algorithm == "cost-oblivious") {
    CostObliviousReallocator::Options options;
    options.epsilon = spec.epsilon;
    *out = std::make_unique<CostObliviousReallocator>(space, options);
  } else if (spec.algorithm == "checkpointed") {
    CheckpointedReallocator::Options options;
    options.epsilon = spec.epsilon;
    *out = std::make_unique<CheckpointedReallocator>(space, options);
  } else if (spec.algorithm == "deamortized") {
    DeamortizedReallocator::Options options;
    options.epsilon = spec.epsilon;
    *out = std::make_unique<DeamortizedReallocator>(space, options);
  } else {
    return Status::InvalidArgument("unknown algorithm: " + spec.algorithm);
  }
  return Status::Ok();
}

}  // namespace cosr
