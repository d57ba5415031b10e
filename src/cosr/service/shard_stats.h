#ifndef COSR_SERVICE_SHARD_STATS_H_
#define COSR_SERVICE_SHARD_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cosr/metrics/latency_histogram.h"

namespace cosr {

/// Aggregated accounting of a sharded facade (single-threaded or
/// concurrent): the per-shard breakdown plus the two global footprint views
/// the service layer reports.
///
/// Thread-compatible: a plain value snapshot, shared freely once made.
/// ShardedReallocator::Stats() copies every shard on the caller's thread;
/// ConcurrentShardedReallocator::Stats() copies each shard on the worker
/// that drains it, through a marker op that rides the shard's FIFO, so it
/// is safe under live submission and exact once the facade is drained.
struct ShardStats {
  /// One shard's accounting. ShardEngine keeps one per shard, which the
  /// shard's owner writes in place as it executes ops (the counters and
  /// latency histograms below); a snapshot is a copy of it, taken on the
  /// owner, with the fields that mirror the shard's view, manager and log
  /// (base through max_sync_stall_seconds) filled in. Adding a per-shard
  /// signal is one field here and one write in ShardEngine.
  struct PerShard {
    std::uint64_t base = 0;  // global offset of the shard's sub-range
    std::size_t objects = 0;
    std::uint64_t volume = 0;
    /// The inner reallocator's reserved end (local coordinates).
    std::uint64_t reserved_footprint = 0;
    /// Largest placed end within the sub-range (local coordinates).
    std::uint64_t space_footprint = 0;
    std::uint64_t checkpoints = 0;  // 0 when the shard has no manager
    /// Durability-log sync accounting (zero when the facade carries no
    /// DurabilityHub): physical Sync() calls on the shard's log sink —
    /// under a coalescing GroupCommitPolicy log_syncs < checkpoints — plus
    /// committed checkpoint-time compactions and the fsync-stall gauges
    /// (total wall seconds inside Sync, and the worst single stall).
    /// Read by the shard's owner from its own sink.
    std::uint64_t log_syncs = 0;
    std::uint64_t log_compactions = 0;
    double sync_wall_seconds = 0.0;
    double max_sync_stall_seconds = 0.0;
    /// Request-level counters, both facades: inserts/deletes the shard
    /// executed, and those its reallocator rejected. Requests the inline
    /// facade's placement map rejects before any shard runs count
    /// nowhere.
    std::uint64_t ops = 0;
    std::uint64_t failed_ops = 0;
    /// Peak of the shard's reserved footprint over its own op stream
    /// (both facades).
    std::uint64_t peak_reserved_footprint = 0;
    /// Batched-submission accounting (concurrent facade only): remote
    /// batches carrying requests that the facade's workers drained from
    /// this shard's RemoteQueue, and how many requests arrived inside them.
    /// Every request rides that queue (a per-op Submit is a batch of one),
    /// so batched_ops == ops; ops / remote_batches is the batching
    /// factor.
    std::uint64_t remote_batches = 0;
    std::uint64_t batched_ops = 0;
    /// Rebalancer accounting (inline facade only): objects (and their
    /// bytes) the rebalancer drained OUT of this shard, and objects it
    /// delivered INTO it.
    /// Exact: each migrated object counts once on its source's
    /// migrations/migrated_bytes and once on its destination's
    /// migrations_in, so sum(migrations) == sum(migrations_in) over a
    /// drained facade.
    std::uint64_t migrations = 0;
    std::uint64_t migrated_bytes = 0;
    std::uint64_t migrations_in = 0;
    /// Per-op wall-clock latency distributions for the shard's
    /// insert/delete requests (internal markers and migrations are not
    /// tracked). `latency_total` runs submit-stamp to completion;
    /// `latency_queue_wait` covers submit-stamp to execution start (queue
    /// residency plus any producer-side backpressure wait — zero-count on
    /// the synchronous facade, which has no queue); `latency_service`
    /// covers the inner reallocator call alone, so queueing collapse is
    /// distinguishable from genuinely slow ops.
    LatencyHistogram latency_total;
    LatencyHistogram latency_queue_wait;
    LatencyHistogram latency_service;
  };
  std::vector<PerShard> shards;

  std::uint64_t volume = 0;
  /// Always 0: both drivers execute every submitted request (the threaded
  /// one blocks its producers instead of dropping). Kept only for callers
  /// that still check it.
  std::uint64_t dropped_ops = 0;
  /// Sum of the shards' reserved footprints: the additive-composition view
  /// (what the facade's reserved_footprint() reports, and the quantity the
  /// footprint-vs-K blowup experiments normalize).
  std::uint64_t sum_reserved_footprint = 0;
  /// Sum of the shards' placed footprints (max end per sub-range).
  std::uint64_t sum_subrange_footprint = 0;
  /// Max over shards of the shard-LOCAL placed end (base subtracted) —
  /// the deepest any single shard's layout reaches into its own window.
  /// This is the per-shard sizing number; unlike global_max_end it does
  /// not carry the i * span base offsets.
  std::uint64_t max_shard_end = 0;
  /// The parent space's literal footprint — the largest *global* end
  /// address (base + space_footprint over the non-empty shards; only
  /// shards place into the parent). Dominated by the highest populated
  /// shard's base; meaningful for sizing the one shared array, not for
  /// waste.
  std::uint64_t global_max_end = 0;
  /// Facade-wide rebalancer totals (sums of the shards' out-migration
  /// counters).
  std::uint64_t migrations = 0;
  std::uint64_t migrated_bytes = 0;
  /// Facade-wide durability-sync totals: summed log syncs / compactions /
  /// sync wall seconds, and the worst single fsync stall across shards.
  std::uint64_t log_syncs = 0;
  std::uint64_t log_compactions = 0;
  double sync_wall_seconds = 0.0;
  double max_sync_stall_seconds = 0.0;
  /// Facade-wide latency distributions: the shards' histograms merged
  /// (bucket counts add — merging is exact, not an approximation of the
  /// union). Same total / queue-wait / service split as PerShard.
  LatencyHistogram latency_total;
  LatencyHistogram latency_queue_wait;
  LatencyHistogram latency_service;
};

/// The two per-shard gauges readable at any time: the facades' volume() /
/// reserved_footprint() sum them, and the inline driver's least-loaded
/// router and rebalance scan read them on its own thread. Only the
/// threaded driver's readers cross threads. Sized and aligned to its own
/// cache line so K shards never false-share.
///
/// Thread-safe under the single-writer discipline: one thread at a time
/// (the shard's owner — the caller on the inline facade, the worker
/// holding the shard's claim on the concurrent one, each claim ordered
/// after the last) stores, relaxed; any thread may load at any time.
/// The two gauges agree with each other, and with the shard's
/// ShardStats::PerShard, only after a drain barrier
/// (ConcurrentShardedReallocator::Flush) establishes happens-before.
/// tests/shard_stats_test.cc stores them from K threads while a reader
/// sums them.
struct alignas(64) ShardCounters {
  std::atomic<std::uint64_t> volume{0};
  std::atomic<std::uint64_t> reserved_footprint{0};
};

}  // namespace cosr

#endif  // COSR_SERVICE_SHARD_STATS_H_
