#ifndef COSR_METRICS_RUN_HARNESS_H_
#define COSR_METRICS_RUN_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cosr/cost/cost_battery.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/storage/space.h"
#include "cosr/workload/trace.h"

namespace cosr {

/// Options for driving a reallocator over a trace.
struct RunOptions {
  /// Verify layout invariants every N requests (0 = never). Works for the
  /// core variants and the size-class baseline; slow — intended for tests.
  std::uint64_t check_invariants_every = 0;
  /// Ignore footprint-ratio samples while the live volume is below this
  /// (tiny structures have unavoidable constant-size overheads).
  std::uint64_t min_volume_for_ratio = 1024;
  /// Record a (operation, footprint, volume) sample every N requests
  /// (0 = never) into RunReport::timeline.
  std::uint64_t timeline_every = 0;
};

/// Per-cost-function outcome of a run.
struct FunctionReport {
  std::string name;
  double allocation_cost = 0;
  double total_write_cost = 0;
  double cost_ratio = 0;     // total / allocation (>= 1)
  double realloc_ratio = 0;  // moves only / allocation (the paper's b)
  double max_op_cost = 0;    // worst single-request cost
};

struct TimelinePoint {
  std::uint64_t operation = 0;
  std::uint64_t reserved_footprint = 0;
  std::uint64_t volume = 0;
};

/// Everything measured over one trace replay.
struct RunReport {
  std::string algorithm;
  std::uint64_t operations = 0;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t moves = 0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t bytes_placed = 0;

  double max_footprint_ratio = 0;    // max reserved footprint / volume
  double avg_footprint_ratio = 0;
  double final_footprint_ratio = 0;
  std::uint64_t max_reserved_footprint = 0;
  std::uint64_t max_volume = 0;

  std::uint64_t flushes = 0;                   // core variants only
  std::uint64_t checkpoints = 0;               // when a manager is attached
  std::uint64_t max_checkpoints_per_flush = 0;  // Section 3 variants only

  std::vector<FunctionReport> functions;
  std::vector<TimelinePoint> timeline;

  const FunctionReport* function(const std::string& name) const;
};

/// Replays `trace` against `realloc` (whose objects live in `space`),
/// pricing all physical activity under `battery`, then runs its deferred
/// work to completion (Quiesce). CHECK-fails on request errors (traces
/// are expected to be valid).
RunReport RunTrace(Reallocator& realloc, Space& space,
                   const Trace& trace, const CostBattery& battery,
                   const RunOptions& options = RunOptions());

}  // namespace cosr

#endif  // COSR_METRICS_RUN_HARNESS_H_
