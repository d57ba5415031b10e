#ifndef COSR_COSR_H_
#define COSR_COSR_H_

/// Umbrella header for the cost-oblivious storage reallocation library.
/// Include individual headers for faster builds; include this for
/// exploration and examples.
///
/// Reproduction of Bender, Farach-Colton, Fekete, Fineman, Gilbert:
/// "Cost-Oblivious Storage Reallocation", PODS 2014 (arXiv:1404.2019).

#include "cosr/alloc/best_fit_allocator.h"    // IWYU pragma: export
#include "cosr/alloc/binned_free_index.h"     // IWYU pragma: export
#include "cosr/alloc/buddy_allocator.h"       // IWYU pragma: export
#include "cosr/alloc/first_fit_allocator.h"   // IWYU pragma: export
#include "cosr/common/check.h"                // IWYU pragma: export
#include "cosr/common/math_util.h"            // IWYU pragma: export
#include "cosr/common/random.h"               // IWYU pragma: export
#include "cosr/common/status.h"               // IWYU pragma: export
#include "cosr/common/types.h"                // IWYU pragma: export
#include "cosr/core/checkpointed_reallocator.h"   // IWYU pragma: export
#include "cosr/core/cost_oblivious_reallocator.h" // IWYU pragma: export
#include "cosr/core/deamortized_reallocator.h"    // IWYU pragma: export
#include "cosr/core/defragmenter.h"           // IWYU pragma: export
#include "cosr/core/size_class.h"             // IWYU pragma: export
#include "cosr/cost/cost_battery.h"           // IWYU pragma: export
#include "cosr/cost/cost_function.h"          // IWYU pragma: export
#include "cosr/db/block_translation_layer.h"  // IWYU pragma: export
#include "cosr/durability/durability_hub.h"   // IWYU pragma: export
#include "cosr/durability/log_record.h"       // IWYU pragma: export
#include "cosr/durability/log_sink.h"         // IWYU pragma: export
#include "cosr/durability/move_log.h"         // IWYU pragma: export
#include "cosr/durability/recovery_manager.h" // IWYU pragma: export
#include "cosr/metrics/cost_meter.h"          // IWYU pragma: export
#include "cosr/metrics/latency_histogram.h"   // IWYU pragma: export
#include "cosr/metrics/run_harness.h"         // IWYU pragma: export
#include "cosr/realloc/compacting_oracle.h"   // IWYU pragma: export
#include "cosr/realloc/factory.h"             // IWYU pragma: export
#include "cosr/realloc/logging_compacting_reallocator.h"  // IWYU pragma: export
#include "cosr/realloc/packed_memory_array.h"  // IWYU pragma: export
#include "cosr/realloc/reallocator.h"         // IWYU pragma: export
#include "cosr/realloc/size_class_reallocator.h"  // IWYU pragma: export
#include "cosr/service/concurrent_sharded_reallocator.h"  // IWYU pragma: export
#include "cosr/service/routing.h"             // IWYU pragma: export
#include "cosr/service/shard_stats.h"         // IWYU pragma: export
#include "cosr/service/sharded_reallocator.h" // IWYU pragma: export
#include "cosr/service/sub_space_view.h"      // IWYU pragma: export
#include "cosr/storage/address_space.h"       // IWYU pragma: export
#include "cosr/storage/checkpoint_manager.h"  // IWYU pragma: export
#include "cosr/storage/offset_index.h"        // IWYU pragma: export
#include "cosr/storage/simulated_disk.h"      // IWYU pragma: export
#include "cosr/viz/flush_tracer.h"            // IWYU pragma: export
#include "cosr/viz/layout_renderer.h"         // IWYU pragma: export
#include "cosr/workload/adversary.h"          // IWYU pragma: export
#include "cosr/workload/trace.h"              // IWYU pragma: export
#include "cosr/workload/workload_generator.h" // IWYU pragma: export

#endif  // COSR_COSR_H_
