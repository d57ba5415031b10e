#include "cosr/metrics/run_harness.h"

#include <algorithm>

#include "cosr/common/check.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/size_class_layout.h"
#include "cosr/metrics/cost_meter.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/realloc/size_class_reallocator.h"
#include "cosr/service/sharded_reallocator.h"

namespace cosr {

const FunctionReport* RunReport::function(const std::string& name) const {
  for (const FunctionReport& f : functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

RunReport RunTrace(Reallocator& realloc, Space& space,
                   const Trace& trace, const CostBattery& battery,
                   const RunOptions& options) {
  RunReport report;
  report.algorithm = realloc.name();
  CostMeter meter(&battery);
  space.AddListener(&meter);

  auto* layout = dynamic_cast<SizeClassLayout*>(&realloc);
  // Both Section 3 variants: DeamortizedReallocator derives from it.
  auto* checkpointed = dynamic_cast<CheckpointedReallocator*>(&realloc);
  auto* size_class = dynamic_cast<SizeClassReallocator*>(&realloc);

  double ratio_sum = 0;
  std::uint64_t ratio_samples = 0;
  std::uint64_t op_index = 0;
  for (const Request& request : trace.requests()) {
    meter.BeginOp();
    if (request.type == Request::Type::kInsert) {
      COSR_CHECK_OK(realloc.Insert(request.id, request.size));
      ++report.inserts;
    } else {
      COSR_CHECK_OK(realloc.Delete(request.id));
      ++report.deletes;
    }
    ++op_index;

    const std::uint64_t footprint = realloc.reserved_footprint();
    const std::uint64_t volume = realloc.volume();
    report.max_reserved_footprint =
        std::max(report.max_reserved_footprint, footprint);
    report.max_volume = std::max(report.max_volume, volume);
    if (volume >= options.min_volume_for_ratio) {
      const double ratio =
          static_cast<double>(footprint) / static_cast<double>(volume);
      report.max_footprint_ratio = std::max(report.max_footprint_ratio, ratio);
      ratio_sum += ratio;
      ++ratio_samples;
      report.final_footprint_ratio = ratio;
    }
    if (options.timeline_every != 0 &&
        op_index % options.timeline_every == 0) {
      report.timeline.push_back(TimelinePoint{op_index, footprint, volume});
    }
    if (options.check_invariants_every != 0 &&
        op_index % options.check_invariants_every == 0) {
      if (layout != nullptr) COSR_CHECK_OK(layout->CheckInvariants());
      if (size_class != nullptr) COSR_CHECK(size_class->SelfCheck());
    }
  }
  meter.BeginOp();  // close the last request's per-op accounting
  // Deferred work runs outside any request window: in production it would
  // be spread across future updates, so it does not count toward any
  // single request's cost.
  realloc.Quiesce();

  report.operations = op_index;
  report.moves = meter.moves();
  report.bytes_moved = meter.bytes_moved();
  report.bytes_placed = meter.bytes_placed();
  if (ratio_samples > 0) {
    report.avg_footprint_ratio = ratio_sum / static_cast<double>(ratio_samples);
  }
  if (layout != nullptr) report.flushes = layout->flush_count();
  if (space.checkpoint_manager() != nullptr) {
    report.checkpoints = space.checkpoint_manager()->checkpoint_count();
  } else if (auto* sharded = dynamic_cast<ShardedReallocator*>(&realloc)) {
    // Sharded runs keep the parent unmanaged; the checkpoints live in the
    // shards' private managers.
    for (const ShardStats::PerShard& shard : sharded->Stats().shards) {
      report.checkpoints += shard.checkpoints;
    }
  }
  if (checkpointed != nullptr) {
    report.max_checkpoints_per_flush =
        checkpointed->max_checkpoints_per_flush();
  }
  for (std::size_t i = 0; i < battery.size(); ++i) {
    FunctionReport fn;
    fn.name = battery.name(i);
    fn.allocation_cost = meter.totals(i).allocation_cost;
    fn.total_write_cost = meter.totals(i).total_write_cost;
    fn.cost_ratio = meter.CostRatio(i);
    fn.realloc_ratio = meter.ReallocRatio(i);
    fn.max_op_cost = meter.totals(i).max_op_cost;
    report.functions.push_back(fn);
  }
  space.RemoveListener(&meter);
  return report;
}

}  // namespace cosr
