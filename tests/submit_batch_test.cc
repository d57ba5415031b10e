// SubmitMany — batched submission, proven against its oracles:
//
//  * Differential grid (K x W, hash routing — the threaded driver's only
//    policy): one trace driven through SubmitMany batches must land in
//    exactly the per-shard stats that the same trace driven op-by-op
//    through Submit and the single-threaded ShardedReallocator produce.
//    At W=1 the guarantee sharpens to per-shard *event-sequence*
//    equality — op-for-op, batching changes nothing. Both drives ride
//    the shards' remote queues (a per-op Submit is a batch of one), so
//    every op counts in batched_ops.
//  * Multiple producers: K producers each sending their own SubmitMany
//    chunks lose nothing — every op executes exactly once, per-shard
//    conservation totals hold.
//  * Statuses never vanish: each op's verdict is the shard's (a failed
//    op fails alone, the batch continues, and the shard counts it), and
//    `accepted` reports exactly the enqueued count.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cosr/realloc/factory.h"
#include "cosr/service/concurrent_sharded_reallocator.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/workload/trace.h"
#include "cosr/workload/workload_generator.h"
#include "reference/event_recorder.h"

namespace cosr {
namespace {

Trace TestTrace(std::uint64_t seed, std::uint64_t operations = 4000) {
  return MakeChurnTrace({.operations = operations,
                         .target_live_volume = 1u << 16,
                         .min_size = 1,
                         .max_size = 512,
                         .seed = seed});
}

std::unique_ptr<ConcurrentShardedReallocator> MakeFacade(
    std::uint32_t shard_count, std::uint32_t worker_threads,
    RoutingPolicy routing) {
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = shard_count;
  options.worker_threads = worker_threads;
  options.routing = routing;
  std::unique_ptr<ConcurrentShardedReallocator> facade;
  EXPECT_TRUE(ConcurrentShardedReallocator::Make(spec, options, &facade).ok());
  return facade;
}

/// Drives the whole trace through SubmitMany in uneven chunks (97 is
/// coprime to every batch-internal boundary worth hiding behind), then
/// drains. Every op must be accepted.
void DriveBatches(ConcurrentShardedReallocator* facade, const Trace& trace) {
  const std::vector<Request>& requests = trace.requests();
  constexpr std::size_t kChunk = 97;
  for (std::size_t i = 0; i < requests.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, requests.size() - i);
    std::size_t accepted = 0;
    ASSERT_TRUE(facade->SubmitMany(requests.data() + i, n, &accepted).ok());
    ASSERT_EQ(accepted, n);
  }
  facade->Quiesce();
}

/// Drives the same trace one Submit per op, then drains.
void DrivePerOp(ConcurrentShardedReallocator* facade, const Trace& trace) {
  for (const Request& request : trace.requests()) {
    ASSERT_TRUE(facade->Submit(request).ok());
  }
  facade->Quiesce();
}

/// The single-threaded facade's ground truth for the same trace.
ShardStats SequentialReplay(std::uint32_t shard_count, RoutingPolicy routing,
                            const Trace& trace) {
  AddressSpace parent;
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  ShardedReallocator::Options options;
  options.shard_count = shard_count;
  options.routing = routing;
  std::unique_ptr<ShardedReallocator> sharded;
  EXPECT_TRUE(ShardedReallocator::Make(spec, options, &parent, &sharded).ok());
  for (const Request& request : trace.requests()) {
    if (request.type == Request::Type::kInsert) {
      EXPECT_TRUE(sharded->Insert(request.id, request.size).ok());
    } else {
      EXPECT_TRUE(sharded->Delete(request.id).ok());
    }
  }
  sharded->Quiesce();
  return sharded->Stats();
}

void ExpectShardStatsEqual(const ShardStats& actual,
                           const ShardStats& expected) {
  ASSERT_EQ(actual.shards.size(), expected.shards.size());
  for (std::size_t i = 0; i < expected.shards.size(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(actual.shards[i].objects, expected.shards[i].objects);
    EXPECT_EQ(actual.shards[i].volume, expected.shards[i].volume);
    EXPECT_EQ(actual.shards[i].reserved_footprint,
              expected.shards[i].reserved_footprint);
    EXPECT_EQ(actual.shards[i].space_footprint,
              expected.shards[i].space_footprint);
    EXPECT_EQ(actual.shards[i].failed_ops, 0u);
  }
  EXPECT_EQ(actual.volume, expected.volume);
  EXPECT_EQ(actual.sum_reserved_footprint, expected.sum_reserved_footprint);
  EXPECT_EQ(actual.sum_subrange_footprint, expected.sum_subrange_footprint);
  EXPECT_EQ(actual.dropped_ops, 0u);
}

/// The differential: SubmitMany vs per-op Submit vs sequential facade,
/// one configuration. At W=1 both concurrent runs also record per-shard
/// event streams, which must agree event-for-event (the op-for-op
/// identity); at W>1 inter-shard interleaving varies but every per-shard
/// outcome is pinned by the stats equality above (a single producer's
/// per-shard op order is deterministic on both drives).
void RunBatchDifferential(std::uint32_t shard_count,
                          std::uint32_t worker_threads, RoutingPolicy routing,
                          std::uint64_t seed) {
  SCOPED_TRACE("K=" + std::to_string(shard_count) +
               "/W=" + std::to_string(worker_threads) + "/" +
               RoutingPolicyName(routing));
  const Trace trace = TestTrace(seed);
  const ShardStats expected = SequentialReplay(shard_count, routing, trace);

  auto batched = MakeFacade(shard_count, worker_threads, routing);
  auto per_op = MakeFacade(shard_count, worker_threads, routing);

  const bool record_events = worker_threads == 1;
  std::vector<std::unique_ptr<EventRecorder>> batched_events, per_op_events;
  if (record_events) {
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      batched_events.push_back(std::make_unique<EventRecorder>());
      batched->AddShardListener(i, batched_events[i].get());
      per_op_events.push_back(std::make_unique<EventRecorder>());
      per_op->AddShardListener(i, per_op_events[i].get());
    }
  }

  DriveBatches(batched.get(), trace);
  DrivePerOp(per_op.get(), trace);

  const ShardStats batched_stats = batched->Stats();
  const ShardStats per_op_stats = per_op->Stats();
  {
    SCOPED_TRACE("batched vs sequential");
    ExpectShardStatsEqual(batched_stats, expected);
  }
  {
    SCOPED_TRACE("per-op vs sequential");
    ExpectShardStatsEqual(per_op_stats, expected);
  }
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    EXPECT_TRUE(batched->shard_space(i).SelfCheck());
    // Identical final placements, coordinate for coordinate.
    EXPECT_EQ(batched->shard_space(i).Snapshot(),
              per_op->shard_space(i).Snapshot());
  }

  // One submit path: every op of both drives, under every routing,
  // arrived through a remote queue. Per-op Submit pushes one batch per op.
  const auto totals = [](const ShardStats& stats) {
    std::uint64_t batched_ops = 0, batches = 0;
    for (const ShardStats::PerShard& shard : stats.shards) {
      batched_ops += shard.batched_ops;
      batches += shard.remote_batches;
    }
    return std::make_pair(batched_ops, batches);
  };
  const std::uint64_t ops = trace.requests().size();
  EXPECT_EQ(totals(batched_stats).first, ops);
  EXPECT_LT(totals(batched_stats).second, ops);
  EXPECT_EQ(totals(per_op_stats).first, ops);
  EXPECT_EQ(totals(per_op_stats).second, ops);

  if (record_events) {
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      SCOPED_TRACE("shard " + std::to_string(i) + " events");
      ASSERT_EQ(batched_events[i]->events.size(),
                per_op_events[i]->events.size());
      for (std::size_t e = 0; e < per_op_events[i]->events.size(); ++e) {
        ASSERT_EQ(batched_events[i]->events[e], per_op_events[i]->events[e])
            << "event " << e;
      }
    }
  }
}

TEST(SubmitBatchDifferential, K1W1Hash) {
  RunBatchDifferential(1, 1, RoutingPolicy::kHashId, 31);
}

TEST(SubmitBatchDifferential, K4W1Hash) {
  RunBatchDifferential(4, 1, RoutingPolicy::kHashId, 32);
}

TEST(SubmitBatchDifferential, K4W4Hash) {
  RunBatchDifferential(4, 4, RoutingPolicy::kHashId, 33);
}

// ------------------------------------------------- multi-producer batches

TEST(SubmitBatchMpsc, ProducerBatchesLoseNothing) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kIdsPerProducer = 3000;

  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 8;
  options.worker_threads = 4;
  options.queue_capacity = 64;  // small bound: exercises the in-flight gate
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  // Each producer owns a disjoint id range and sends it in kChunk-op
  // SubmitMany batches: inserts everything, deletes the even ids
  // (insert-before-delete per id holds because one producer's ops on one
  // shard keep batch order and stay FIFO through the remote queue).
  constexpr std::size_t kChunk = 32;
  std::atomic<std::uint64_t> expected_volume{0};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const ObjectId base = ObjectId{p} * 1000000;
      std::vector<Request> ops;
      std::uint64_t kept = 0;
      for (std::uint64_t j = 0; j < kIdsPerProducer; ++j) {
        const ObjectId id = base + j;
        const std::uint64_t size = 1 + (j * 2654435761u % 512);
        ops.push_back(Request::Insert(id, size));
        if (j % 2 == 0) {
          ops.push_back(Request::Delete(id));
        } else {
          kept += size;
        }
      }
      ASSERT_EQ(ops.size(), kIdsPerProducer * 3 / 2);
      for (std::size_t i = 0; i < ops.size(); i += kChunk) {
        const std::size_t n = std::min(kChunk, ops.size() - i);
        std::size_t accepted = 0;
        ASSERT_TRUE(concurrent->SubmitMany(ops.data() + i, n, &accepted).ok());
        ASSERT_EQ(accepted, n);
      }
      expected_volume.fetch_add(kept, std::memory_order_relaxed);
    });
  }
  for (std::thread& producer : producers) producer.join();
  concurrent->Flush();

  const ShardStats stats = concurrent->Stats();
  std::uint64_t ops = 0, failed = 0, objects = 0, batched = 0;
  for (const ShardStats::PerShard& shard : stats.shards) {
    ops += shard.ops;
    failed += shard.failed_ops;
    objects += shard.objects;
    batched += shard.batched_ops;
  }
  EXPECT_EQ(ops, kProducers * kIdsPerProducer * 3 / 2);  // exactly once each
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(batched, ops);  // every op arrived through the remote path
  EXPECT_EQ(objects, kProducers * kIdsPerProducer / 2);
  EXPECT_EQ(stats.volume, expected_volume.load());
  EXPECT_EQ(stats.dropped_ops, 0u);
  for (std::uint32_t s = 0; s < concurrent->shard_count(); ++s) {
    EXPECT_TRUE(concurrent->shard_space(s).SelfCheck());
  }
}

// ------------------------------------------------------ status propagation

TEST(SubmitBatchStatus, RejectionsFailAloneAndAcceptedCountsEnqueued) {
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 4;
  options.worker_threads = 2;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  // ops[1] duplicates ops[0]'s id (AlreadyExists), ops[3] deletes a dead
  // id (NotFound), ops[5] has size 0 (InvalidArgument). Every op on one id
  // hashes to one shard and runs in batch order there, so each verdict is
  // the shard's: a failed op fails alone and the batch continues.
  const std::vector<Request> ops = {
      Request::Insert(1, 100), Request::Insert(1, 5000),
      Request::Insert(2, 700), Request::Delete(999),
      Request::Delete(1),      Request::Insert(3, 0),
  };
  // SubmitMany enqueues every op (nothing is judged at submit) and
  // reports the exact accepted count.
  std::size_t accepted = 0;
  EXPECT_TRUE(concurrent->SubmitMany(ops.data(), ops.size(), &accepted).ok());
  EXPECT_EQ(accepted, ops.size());
  concurrent->Flush();
  // The shards counted the 3 failures; the other 3 ops ran.
  const ShardStats stats = concurrent->Stats();
  std::uint64_t failed = 0, executed = 0;
  for (const ShardStats::PerShard& shard : stats.shards) {
    failed += shard.failed_ops;
    executed += shard.ops;
  }
  EXPECT_EQ(failed, 3u);
  EXPECT_EQ(executed, ops.size());
  EXPECT_EQ(stats.volume, 700u);  // only id 2 is live
}

}  // namespace
}  // namespace cosr
