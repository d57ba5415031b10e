// The concurrent service facade's correctness properties:
//
//  * Differential fuzz — a ConcurrentShardedReallocator (K shards, W
//    worker threads) fed one trace must land in exactly the per-shard
//    footprints, volumes, physical-event counts, and aggregate stats that
//    the single-threaded ShardedReallocator produces for the same trace:
//    per-shard op streams are identical, so parallel execution may only
//    interleave *between* shards, never change any shard's outcome.
//  * K=1/W=1 is operation-for-operation identical to the bare algorithm
//    (the same zero-cost-wrapper identity the single-threaded facade pins).
//  * MPSC under real contention — multiple producer threads submitting
//    concurrently lose nothing: every submitted op executes exactly once,
//    also while recycled queue nodes change size between drains and
//    every entry point (SubmitMany, Submit, Insert/Delete, Stats) shares
//    the shards' FIFOs.
//  * Backpressure — a full shard blocks Submit, synchronous Insert and
//    SubmitMany until a drain frees room; nothing is dropped.
//  * Drain/shutdown ordering — Flush retires everything submitted before
//    it; Quiesce and CheckpointAll need no Flush before them, since each
//    shard's marker rides behind every op submitted before the call;
//    destruction drains pending queues before joining the workers.
//  * Work-conserving drain — a shard wedged mid-op holds up no sibling:
//    an idle worker claims any shard with queued work.
//  * The ownership fence follows the claim — a view mutated by the thread
//    that took it over passes; a mutation by any other thread dies (debug
//    builds).
//  * Statuses never vanish: synchronous calls return the shard's verdict,
//    fire-and-forget failures are counted per shard.
//  * The spin-then-park hand-off — synchronous Insert/Delete from many
//    threads, completing both mid-spin and after a park, next to a
//    SubmitMany producer blocked on a small queue_capacity, loses nothing.
//  * Hash routing only — Make (and the factory, and the crash fuzz that
//    builds on it) reject size-class and least-loaded routing and
//    rebalance with a Status, never an abort.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cosr/common/random.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/durability/recovery_manager.h"
#include "cosr/metrics/cost_meter.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/concurrent_sharded_reallocator.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/service/sub_space_view.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/extent.h"
#include "cosr/storage/simulated_disk.h"
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

// ------------------------------------------------- concurrent differential

/// Replays `trace` through the single-threaded facade and returns its
/// stats, so the concurrent run has a ground truth to match.
ShardStats SequentialReplay(const std::string& algorithm,
                            std::uint32_t shard_count, RoutingPolicy routing,
                            const Trace& trace, CostMeter* meter) {
  AddressSpace parent;
  if (meter != nullptr) parent.AddListener(meter);
  ReallocatorSpec spec;
  spec.algorithm = algorithm;
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
  if (meter != nullptr) parent.RemoveListener(meter);
  return sharded->Stats();
}

void RunConcurrentDifferential(const std::string& algorithm,
                               std::uint32_t shard_count,
                               std::uint32_t worker_threads,
                               RoutingPolicy routing, std::uint64_t seed) {
  SCOPED_TRACE(algorithm + "/K=" + std::to_string(shard_count) +
               "/W=" + std::to_string(worker_threads) + "/" +
               RoutingPolicyName(routing));
  const Trace trace = TestTrace(seed);
  const CostBattery battery = MakeDefaultBattery();

  CostMeter sequential_meter(&battery);
  const ShardStats expected = SequentialReplay(
      algorithm, shard_count, routing, trace, &sequential_meter);

  ReallocatorSpec spec;
  spec.algorithm = algorithm;
  ConcurrentShardedReallocator::Options options;
  options.shard_count = shard_count;
  options.worker_threads = worker_threads;
  options.routing = routing;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  // One meter per shard: a shard's listeners fire on one worker at a time,
  // so per-shard meters need no locking; they merge after the drain.
  std::vector<std::unique_ptr<CostMeter>> shard_meters;
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    shard_meters.push_back(std::make_unique<CostMeter>(&battery));
    concurrent->AddShardListener(i, shard_meters[i].get());
  }

  for (const Request& request : trace.requests()) {
    ASSERT_TRUE(concurrent->Submit(request).ok());
  }
  concurrent->Quiesce();
  const ShardStats actual = concurrent->Stats();

  // Per-shard outcomes are identical, shard by shard.
  ASSERT_EQ(actual.shards.size(), expected.shards.size());
  std::uint64_t failed = 0;
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(actual.shards[i].base, expected.shards[i].base);
    EXPECT_EQ(actual.shards[i].objects, expected.shards[i].objects);
    EXPECT_EQ(actual.shards[i].volume, expected.shards[i].volume);
    EXPECT_EQ(actual.shards[i].reserved_footprint,
              expected.shards[i].reserved_footprint);
    EXPECT_EQ(actual.shards[i].space_footprint,
              expected.shards[i].space_footprint);
    EXPECT_EQ(actual.shards[i].checkpoints, expected.shards[i].checkpoints);
    // Both drivers fill the same record: the same requests, failures,
    // peak and latency samples per shard.
    EXPECT_EQ(actual.shards[i].ops, expected.shards[i].ops);
    EXPECT_EQ(actual.shards[i].failed_ops, expected.shards[i].failed_ops);
    EXPECT_EQ(actual.shards[i].peak_reserved_footprint,
              expected.shards[i].peak_reserved_footprint);
    EXPECT_EQ(actual.shards[i].latency_service.count,
              expected.shards[i].latency_service.count);
    EXPECT_GE(actual.shards[i].peak_reserved_footprint,
              actual.shards[i].reserved_footprint);
    failed += actual.shards[i].failed_ops;
    EXPECT_TRUE(concurrent->shard_space(i).SelfCheck());
    EXPECT_TRUE(concurrent->shard_view(i).SelfCheck());
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(actual.volume, expected.volume);
  EXPECT_EQ(actual.sum_reserved_footprint, expected.sum_reserved_footprint);
  EXPECT_EQ(actual.sum_subrange_footprint, expected.sum_subrange_footprint);
  EXPECT_EQ(actual.global_max_end, expected.global_max_end);
  EXPECT_EQ(concurrent->reserved_footprint(), expected.sum_reserved_footprint);
  EXPECT_EQ(concurrent->volume(), expected.volume);

  // Physical activity: merged per-shard meters equal the sequential meter.
  CostMeter merged(&battery);
  for (const auto& meter : shard_meters) merged.MergeFrom(*meter);
  EXPECT_EQ(merged.places(), sequential_meter.places());
  EXPECT_EQ(merged.moves(), sequential_meter.moves());
  EXPECT_EQ(merged.removes(), sequential_meter.removes());
  EXPECT_EQ(merged.bytes_placed(), sequential_meter.bytes_placed());
  EXPECT_EQ(merged.bytes_moved(), sequential_meter.bytes_moved());
}

TEST(ConcurrentDifferential, CostObliviousK8W4) {
  RunConcurrentDifferential("cost-oblivious", 8, 4, RoutingPolicy::kHashId, 11);
}

// K=8 over W=3 does not divide evenly: under static pinning it was the
// 3/3/2 split. Workers now claim any shard with queued work, so here
// shards change workers mid-run, and every per-shard outcome must still
// match the sequential replay.
TEST(ConcurrentDifferential, CostObliviousK8W3UnevenPinning) {
  RunConcurrentDifferential("cost-oblivious", 8, 3, RoutingPolicy::kHashId, 12);
}

TEST(ConcurrentDifferential, FirstFitK8W8) {
  RunConcurrentDifferential("first-fit", 8, 8, RoutingPolicy::kHashId, 13);
}

TEST(ConcurrentDifferential, CheckpointedK4W4ScopedManagers) {
  RunConcurrentDifferential("checkpointed", 4, 4, RoutingPolicy::kHashId, 14);
}

TEST(ConcurrentDifferential, DeamortizedK4W2) {
  RunConcurrentDifferential("deamortized", 4, 2, RoutingPolicy::kHashId, 15);
}

TEST(ConcurrentDifferential, CostObliviousK4W4) {
  RunConcurrentDifferential("cost-oblivious", 4, 4, RoutingPolicy::kHashId, 16);
}

// ------------------------------------------- K=1/W=1 bare-algorithm identity

TEST(ConcurrentK1Identity, CostObliviousEventForEvent) {
  const Trace trace = TestTrace(21, 3000);

  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";

  AddressSpace ref_space;
  EventRecorder ref_events;
  ref_space.AddListener(&ref_events);
  std::unique_ptr<Reallocator> ref;
  ASSERT_TRUE(MakeReallocator(spec, &ref_space, &ref).ok());

  ConcurrentShardedReallocator::Options options;
  options.shard_count = 1;
  options.worker_threads = 1;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());
  EventRecorder concurrent_events;
  concurrent->AddShardListener(0, &concurrent_events);

  for (const Request& request : trace.requests()) {
    if (request.type == Request::Type::kInsert) {
      ASSERT_TRUE(ref->Insert(request.id, request.size).ok());
    } else {
      ASSERT_TRUE(ref->Delete(request.id).ok());
    }
    ASSERT_TRUE(concurrent->Submit(request).ok());
  }
  ref->Quiesce();
  concurrent->Quiesce();

  // Shard 0 is based at 0, so even the physical coordinates agree.
  ASSERT_EQ(concurrent_events.events.size(), ref_events.events.size());
  for (std::size_t i = 0; i < ref_events.events.size(); ++i) {
    ASSERT_EQ(concurrent_events.events[i], ref_events.events[i])
        << "event " << i;
  }
  EXPECT_EQ(concurrent->shard_space(0).Snapshot(), ref_space.Snapshot());
  EXPECT_EQ(concurrent->reserved_footprint(), ref->reserved_footprint());
}

// ----------------------------------------------------- MPSC under contention

TEST(ConcurrentMpsc, MultipleProducersLoseNothing) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kIdsPerProducer = 3000;

  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 8;
  options.worker_threads = 4;
  options.queue_capacity = 64;  // small bound: exercises backpressure
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  // Each producer owns a disjoint id range: inserts everything, deletes
  // the even ids (insert-before-delete order per id holds because one
  // producer's ops on one shard stay FIFO through that shard's queue).
  std::atomic<std::uint64_t> expected_volume{0};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const ObjectId base = ObjectId{p} * 1000000;
      std::uint64_t kept = 0;
      for (std::uint64_t j = 0; j < kIdsPerProducer; ++j) {
        const ObjectId id = base + j;
        const std::uint64_t size = 1 + (j * 2654435761u % 512);
        ASSERT_TRUE(concurrent->Submit(Request::Insert(id, size)).ok());
        if (j % 2 == 0) {
          ASSERT_TRUE(concurrent->Submit(Request::Delete(id)).ok());
        } else {
          kept += size;
        }
      }
      expected_volume.fetch_add(kept, std::memory_order_relaxed);
    });
  }
  // The reads that stay cross-thread must be well-formed while producers
  // and workers run: volume() and the summed reserved-footprint gauges
  // never exceed the bytes the producers insert (first-fit only extends
  // its end by appending an insert). Stats() must be callable under load
  // too — its per-shard snapshots ride the shards' queues and run under
  // the shards' claims, so this is race-free by construction (TSan runs
  // this test in CI to hold that claim).
  std::uint64_t inserted_bytes = 0;
  for (std::uint64_t j = 0; j < kIdsPerProducer; ++j) {
    inserted_bytes += kProducers * (1 + (j * 2654435761u % 512));
  }
  for (int poll = 0; poll < 50; ++poll) {
    std::uint64_t reserved = 0;
    for (std::uint32_t s = 0; s < concurrent->shard_count(); ++s) {
      reserved += concurrent->counters(s).reserved_footprint.load(
          std::memory_order_relaxed);
    }
    ASSERT_LE(reserved, inserted_bytes);
    ASSERT_LE(concurrent->volume(), inserted_bytes);
    if (poll % 10 == 0) {
      const ShardStats running = concurrent->Stats();
      ASSERT_EQ(running.shards.size(), concurrent->shard_count());
      ASSERT_GE(running.sum_reserved_footprint, running.sum_subrange_footprint);
    }
    std::this_thread::yield();
  }
  for (std::thread& producer : producers) producer.join();
  concurrent->Flush();

  const ShardStats stats = concurrent->Stats();
  std::uint64_t ops = 0, failed = 0, objects = 0;
  for (const ShardStats::PerShard& shard : stats.shards) {
    ops += shard.ops;
    failed += shard.failed_ops;
    objects += shard.objects;
  }
  EXPECT_EQ(ops, kProducers * kIdsPerProducer * 3 / 2);  // every op ran once
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(objects, kProducers * kIdsPerProducer / 2);
  EXPECT_EQ(stats.volume, expected_volume.load());
  for (std::uint32_t s = 0; s < concurrent->shard_count(); ++s) {
    EXPECT_TRUE(concurrent->shard_space(s).SelfCheck());
  }
}

/// Per-id order under races: 4 producers churn their own ids through
/// three incarnations of different sizes each, through a MIX of per-op
/// Submit and SubmitMany batches, at an in-flight capacity of 8, so the
/// reserve / wait / chunked-delivery loop runs constantly. Every op on an
/// id hashes to one shard, and one producer's ops on one shard stay FIFO
/// whichever entry point pushed them, so any reordering executes some
/// delete before its insert (or an insert before the prior delete) and
/// surfaces as failed_ops.
TEST(ConcurrentMpsc, ReincarnationsKeepPerIdOrderUnderRaces) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kIdsPerProducer = 300;

  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 8;
  options.worker_threads = 4;
  options.queue_capacity = 8;  // constant backpressure during admission
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  std::atomic<std::uint64_t> expected_volume{0};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const ObjectId base = ObjectId{p} * 1000000;
      std::uint64_t kept = 0;
      std::vector<Request> batch;
      for (std::uint64_t j = 0; j < kIdsPerProducer; ++j) {
        const ObjectId id = base + j;
        const std::uint64_t final_size = 1 + j % 64;
        if (j % 2 == 0) {
          batch.clear();
          for (const std::uint64_t size : {3ull, 700ull, 65000ull}) {
            batch.push_back(Request::Insert(id, size));
            batch.push_back(Request::Delete(id));
          }
          batch.push_back(Request::Insert(id, final_size));
          std::size_t accepted = 0;
          ASSERT_TRUE(
              concurrent->SubmitMany(batch.data(), batch.size(), &accepted)
                  .ok());
          ASSERT_EQ(accepted, batch.size());  // pure backpressure: no drops
        } else {
          for (const std::uint64_t size : {3ull, 700ull, 65000ull}) {
            ASSERT_TRUE(concurrent->Submit(Request::Insert(id, size)).ok());
            ASSERT_TRUE(concurrent->Submit(Request::Delete(id)).ok());
          }
          ASSERT_TRUE(
              concurrent->Submit(Request::Insert(id, final_size)).ok());
        }
        kept += final_size;
      }
      expected_volume.fetch_add(kept, std::memory_order_relaxed);
    });
  }
  for (std::thread& producer : producers) producer.join();
  concurrent->Flush();

  const ShardStats stats = concurrent->Stats();
  std::uint64_t failed = 0, objects = 0;
  for (const ShardStats::PerShard& shard : stats.shards) {
    failed += shard.failed_ops;
    objects += shard.objects;
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(objects, kProducers * kIdsPerProducer);
  EXPECT_EQ(stats.volume, expected_volume.load());
  EXPECT_EQ(stats.dropped_ops, 0u);

  // Every survivor still deletes: nothing leaked, nothing doubled.
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    for (std::uint64_t j = 0; j < kIdsPerProducer; ++j) {
      ASSERT_TRUE(
          concurrent->Submit(Request::Delete(ObjectId{p} * 1000000 + j)).ok());
    }
  }
  concurrent->Flush();
  EXPECT_EQ(concurrent->volume(), 0u);
  std::uint64_t failed_after = 0;
  for (const ShardStats::PerShard& shard : concurrent->Stats().shards) {
    failed_after += shard.failed_ops;
  }
  EXPECT_EQ(failed_after, 0u);
}

/// Recycled queue nodes under every entry point at once: 4 producers mix
/// SubmitMany batches of 1-200 ops, per-op Submit, synchronous
/// Insert/Delete and Stats at an in-flight capacity of 4, so batches go
/// out in chunks, each shard's pooled nodes carry 1 to 4 ops from one
/// drain to the next, and waiters' stack nodes ride between them. Each
/// producer inserts fresh ids and deletes its own live ones, so every op
/// succeeds exactly when each runs once and in order: a recycled node that
/// kept or lost an op shows in the exact per-shard op counts, failed_ops
/// or the volume.
TEST(ConcurrentMpsc, RecycledNodesCarryEveryEntryPointExactlyOnce) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint32_t kRounds = 400;

  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 8;
  options.worker_threads = 3;
  options.queue_capacity = 4;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());
  const std::uint32_t shards = concurrent->shard_count();

  std::vector<std::vector<std::uint64_t>> expected_ops(
      kProducers, std::vector<std::uint64_t>(shards, 0));
  std::vector<std::uint64_t> expected_volume(kProducers, 0);
  std::atomic<std::uint64_t> sync_failures{0};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(500 + p);
      ObjectId next_id = ObjectId{p} * 1000000;
      std::vector<std::pair<ObjectId, std::uint64_t>> live;
      std::uint64_t volume = 0;
      // The next op of this producer's stream: a fresh insert, or a
      // delete of one of its live ids.
      const auto next_op = [&] {
        Request request;
        if (live.empty() || rng.Bernoulli(0.55)) {
          const std::uint64_t size = rng.UniformRange(1, 512);
          request = Request::Insert(next_id, size);
          live.emplace_back(next_id++, size);
          volume += size;
        } else {
          const std::size_t victim = rng.UniformU64(live.size());
          request = Request::Delete(live[victim].first);
          volume -= live[victim].second;
          live[victim] = live.back();
          live.pop_back();
        }
        ++expected_ops[p][concurrent->shard_for(request.id, request.size)];
        return request;
      };
      std::vector<Request> batch;
      for (std::uint32_t round = 0; round < kRounds; ++round) {
        switch (rng.UniformU64(4)) {
          case 0: {
            batch.resize(rng.UniformRange(1, 200));
            for (Request& request : batch) request = next_op();
            std::size_t accepted = 0;
            EXPECT_TRUE(
                concurrent->SubmitMany(batch.data(), batch.size(), &accepted)
                    .ok());
            EXPECT_EQ(accepted, batch.size());
            break;
          }
          case 1:
            EXPECT_TRUE(concurrent->Submit(next_op()).ok());
            break;
          case 2: {
            const Request request = next_op();
            const Status status =
                request.type == Request::Type::kInsert
                    ? concurrent->Insert(request.id, request.size)
                    : concurrent->Delete(request.id);
            if (!status.ok()) {
              sync_failures.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          default:
            EXPECT_EQ(concurrent->Stats().shards.size(), shards);
            break;
        }
      }
      expected_volume[p] = volume;
    });
  }
  for (std::thread& producer : producers) producer.join();
  concurrent->Flush();

  const ShardStats stats = concurrent->Stats();
  ASSERT_EQ(stats.shards.size(), shards);
  EXPECT_EQ(sync_failures.load(), 0u);
  for (std::uint32_t s = 0; s < shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    std::uint64_t ops = 0;
    for (std::uint32_t p = 0; p < kProducers; ++p) ops += expected_ops[p][s];
    EXPECT_EQ(stats.shards[s].ops, ops);
    EXPECT_EQ(stats.shards[s].failed_ops, 0u);
    EXPECT_TRUE(concurrent->shard_space(s).SelfCheck());
  }
  std::uint64_t volume = 0;
  for (const std::uint64_t v : expected_volume) volume += v;
  EXPECT_EQ(stats.volume, volume);
  EXPECT_EQ(concurrent->volume(), volume);
}

// ------------------------------------------------ drain / shutdown ordering

/// Stalls the worker draining its shard inside every OnPlace until
/// released, so a test can wedge the pipeline deterministically.
class StallingListener : public SpaceListener {
 public:
  void OnPlace(ObjectId, const Extent&) override {
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
};


TEST(ConcurrentDrain, FlushRetiresEverythingSubmittedBefore) {
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 4;
  options.worker_threads = 2;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  for (ObjectId id = 0; id < 2000; ++id) {
    ASSERT_TRUE(concurrent->Submit(Request::Insert(id, 16)).ok());
  }
  concurrent->Flush();
  // Read before anything else waits: the gauges are exact only if Flush
  // returned after every op retired.
  EXPECT_EQ(concurrent->volume(), 2000u * 16);
  const ShardStats stats = concurrent->Stats();
  std::uint64_t ops = 0, failed = 0;
  for (const ShardStats::PerShard& shard : stats.shards) {
    ops += shard.ops;
    failed += shard.failed_ops;
  }
  EXPECT_EQ(ops, 2000u);
  EXPECT_EQ(failed, 0u);
}

class PlaceCounter : public SpaceListener {
 public:
  void OnPlace(ObjectId, const Extent&) override {
    count.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> count{0};
};

TEST(ConcurrentDrain, DestructorDrainsPendingQueuesBeforeJoining) {
  PlaceCounter counter;  // outlives the facade
  constexpr std::uint64_t kOps = 5000;
  {
    ReallocatorSpec spec;
    spec.algorithm = "first-fit";
    ConcurrentShardedReallocator::Options options;
    options.shard_count = 4;
    options.worker_threads = 2;
    std::unique_ptr<ConcurrentShardedReallocator> concurrent;
    ASSERT_TRUE(
        ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());
    for (std::uint32_t s = 0; s < 4; ++s) {
      concurrent->AddShardListener(s, &counter);
    }
    for (ObjectId id = 0; id < kOps; ++id) {
      ASSERT_TRUE(concurrent->Submit(Request::Insert(id, 8)).ok());
    }
    // No Flush: destruction itself must retire the queued tail.
  }
  EXPECT_EQ(counter.count.load(), kOps);
}

TEST(ConcurrentDrain, NoShardWaitsBehindAStalledSibling) {
  // Shard 0 wedges inside its listener, as it would in a long flush. With
  // K=3 and W=2, static pinning (shard i on worker i % 2) put shard 2 on
  // shard 0's worker, so shard 2's ops waited for the wedge. Any idle
  // worker now claims shard 2 and drains it.
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 3;
  options.worker_threads = 2;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());
  StallingListener stall;
  concurrent->AddShardListener(0, &stall);
  const auto next_id_on = [&](std::uint32_t shard, ObjectId id) {
    while (concurrent->shard_for(id, 8) != shard) ++id;
    return id;
  };

  // The wedged op is a synchronous Insert on a helper thread; so are
  // shard 2's, on another, so a main thread that waits with a deadline
  // can report a wedge instead of hanging.
  std::atomic<bool> wedged_returned{false};
  std::thread wedged([&] {
    EXPECT_TRUE(concurrent->Insert(next_id_on(0, 0), 8).ok());
    wedged_returned.store(true, std::memory_order_release);
  });
  while (!stall.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  constexpr int kOps = 16;
  std::atomic<bool> siblings_returned{false};
  std::thread siblings([&] {
    ObjectId id = 0;
    for (int i = 0; i < kOps; ++i) {
      id = next_id_on(2, id + 1);
      EXPECT_TRUE(concurrent->Insert(id, 8).ok());
    }
    siblings_returned.store(true, std::memory_order_release);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!siblings_returned.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(siblings_returned.load(std::memory_order_acquire))
      << "shard 2's ops waited behind wedged shard 0";
  // Shard 0 stayed wedged throughout.
  EXPECT_FALSE(wedged_returned.load(std::memory_order_acquire));

  stall.release.store(true, std::memory_order_release);
  siblings.join();
  wedged.join();
  EXPECT_EQ(concurrent->volume(), (kOps + 1) * 8u);
}

// -------------------------------------------- ownership fence under claims

TEST(ConcurrentOwnership, HandOffMovesTheFence) {
  // The claim's hand-off makes the claiming thread the view's owner, so
  // a shard may be mutated by one thread after another.
  AddressSpace parent;
  SubSpaceView view(&parent, 0, 1u << 20);
  ASSERT_TRUE(view.TryPlace(1, Extent{0, 8}));
  std::thread([&view] {
    view.HandOff();
    EXPECT_TRUE(view.TryPlace(2, Extent{8, 8}));
  }).join();
  view.HandOff();
  EXPECT_TRUE(view.TryPlace(3, Extent{16, 8}));
  EXPECT_EQ(view.object_count(), 3u);
}

TEST(ConcurrentOwnership, MutationWithoutHandOffDies) {
#ifdef NDEBUG
  GTEST_SKIP() << "the ownership fence is compiled out under NDEBUG";
#else
  // The main thread mutates first, then another thread takes the view
  // over. The main thread no longer holds it, so its next mutation
  // without a hand-off must CHECK-fail.
  AddressSpace parent;
  SubSpaceView view(&parent, 0, 1u << 20);
  ASSERT_TRUE(view.TryPlace(1, Extent{0, 8}));
  std::thread([&view] {
    view.HandOff();
    EXPECT_TRUE(view.TryPlace(2, Extent{8, 8}));
  }).join();
  EXPECT_DEATH(view.TryPlace(3, Extent{16, 8}), "owning thread");
#endif
}

// ----------------------------------------------------- status propagation

TEST(ConcurrentStatus, SyncCallsCarryShardVerdicts) {
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 4;
  options.worker_threads = 2;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  // The synchronous Reallocator interface returns the shard's verdict.
  EXPECT_TRUE(concurrent->Insert(8, 10).ok());
  EXPECT_EQ(concurrent->Insert(8, 10).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(concurrent->Delete(8).ok());
  EXPECT_EQ(concurrent->Delete(8).code(), StatusCode::kNotFound);

  // Fire-and-forget failures are counted, never silent — failed_ops tallies
  // every non-ok op, so the 2 intentional failures above count too.
  ASSERT_TRUE(concurrent->Submit(Request::Insert(9, 10)).ok());
  ASSERT_TRUE(concurrent->Submit(Request::Insert(9, 10)).ok());  // dup
  const ShardStats stats = concurrent->Stats();
  std::uint64_t failed = 0;
  for (const ShardStats::PerShard& shard : stats.shards) {
    failed += shard.failed_ops;
  }
  EXPECT_EQ(failed, 3u);
}

TEST(ConcurrentStatus, SyncRoundTripsFromManyThreads) {
  // Synchronous Insert/Delete from several threads at once, each call one
  // completion round trip. A seeded pattern of pauses longer than the spin
  // window makes ops complete both while their waiter spins and after it
  // parked, and makes workers both catch work mid-spin and wake from a
  // park — every hand-off path of the spin-then-park protocol. A SubmitMany
  // producer runs alongside at a small queue_capacity, so parked callers
  // share each lane's cv_retired with a producer blocked for room.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kCallsPerThread = 3000;
  constexpr std::uint64_t kRounds = 100;
  constexpr std::uint64_t kInsertsPerRound = 32;  // then delete the even ids

  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 8;
  options.worker_threads = 3;
  options.queue_capacity = 4;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  std::atomic<std::uint64_t> expected_volume{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> callers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      Rng rng(100 + t);
      const ObjectId base = ObjectId{t} * 1000000;
      ObjectId next_id = base;
      std::vector<std::pair<ObjectId, std::uint64_t>> live;
      std::uint64_t volume = 0;
      for (std::uint64_t call = 0; call < kCallsPerThread; ++call) {
        if (rng.Bernoulli(0.125)) {
          std::this_thread::sleep_for(2 * kSpinBeforePark);
        }
        Status status;
        if (live.empty() || rng.Bernoulli(0.6)) {
          const std::uint64_t size = rng.UniformRange(1, 4096);
          status = concurrent->Insert(next_id, size);
          live.emplace_back(next_id++, size);
          volume += size;
        } else {
          const std::size_t victim = rng.UniformU64(live.size());
          status = concurrent->Delete(live[victim].first);
          volume -= live[victim].second;
          live[victim] = live.back();
          live.pop_back();
        }
        if (!status.ok()) failures.fetch_add(1, std::memory_order_relaxed);
      }
      expected_volume.fetch_add(volume, std::memory_order_relaxed);
    });
  }
  std::thread producer([&] {
    Rng rng(99);
    ObjectId next_id = ObjectId{kThreads} * 1000000;
    std::uint64_t kept = 0;
    std::vector<Request> batch;
    for (std::uint64_t round = 0; round < kRounds; ++round) {
      batch.clear();
      for (std::uint64_t i = 0; i < kInsertsPerRound; ++i) {
        const std::uint64_t size = rng.UniformRange(1, 4096);
        batch.push_back(Request::Insert(next_id + i, size));
        if (i % 2 == 1) kept += size;
      }
      for (std::uint64_t i = 0; i < kInsertsPerRound; i += 2) {
        batch.push_back(Request::Delete(next_id + i));
      }
      next_id += kInsertsPerRound;
      std::size_t accepted = 0;
      EXPECT_TRUE(
          concurrent->SubmitMany(batch.data(), batch.size(), &accepted).ok());
      EXPECT_EQ(accepted, batch.size());
    }
    expected_volume.fetch_add(kept, std::memory_order_relaxed);
  });
  for (std::thread& caller : callers) caller.join();
  producer.join();
  concurrent->Flush();

  constexpr std::uint64_t kOps =
      kThreads * kCallsPerThread + kRounds * kInsertsPerRound * 3 / 2;
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(concurrent->volume(), expected_volume.load());
  const ShardStats stats = concurrent->Stats();
  std::uint64_t ops = 0, failed = 0;
  for (const ShardStats::PerShard& shard : stats.shards) {
    ops += shard.ops;
    failed += shard.failed_ops;
  }
  EXPECT_EQ(ops, kOps);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(stats.latency_total.count, kOps);
  for (std::uint32_t s = 0; s < concurrent->shard_count(); ++s) {
    EXPECT_TRUE(concurrent->shard_space(s).SelfCheck());
    EXPECT_TRUE(concurrent->shard_view(s).SelfCheck());
  }
}

// ------------------------------------------------------------ backpressure

TEST(ConcurrentBackpressure, FullShardBlocksSubmitAndSyncCallsUntilRoomFrees) {
  // A full shard blocks its producers until a drain frees room; every
  // submitted op executes.
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 1;
  options.worker_threads = 1;
  options.queue_capacity = 2;  // the executing op counts
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  StallingListener stall;
  concurrent->AddShardListener(0, &stall);
  // Op 1 wedges the worker inside the listener; op 2 fills the room.
  ASSERT_TRUE(concurrent->Submit(Request::Insert(1, 8)).ok());
  while (!stall.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(concurrent->Submit(Request::Insert(2, 8)).ok());

  std::atomic<int> accepted{0};
  std::thread submitter([&] {
    EXPECT_TRUE(concurrent->Submit(Request::Insert(3, 8)).ok());
    accepted.fetch_add(1, std::memory_order_release);
  });
  std::thread caller([&] {
    EXPECT_TRUE(concurrent->Insert(4, 8).ok());
    accepted.fetch_add(1, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(accepted.load(std::memory_order_acquire), 0);
  stall.release.store(true, std::memory_order_release);
  submitter.join();
  caller.join();
  EXPECT_EQ(accepted.load(std::memory_order_acquire), 2);
  concurrent->Flush();
  const ShardStats stats = concurrent->Stats();
  EXPECT_EQ(stats.dropped_ops, 0u);
  EXPECT_EQ(stats.volume, 4u * 8);
  EXPECT_EQ(stats.shards[0].failed_ops, 0u);
}

TEST(ConcurrentBackpressure, BatchBlocksUntilEveryOpIsQueued) {
  // A batch larger than the room left goes out in chunks as room frees;
  // SubmitMany returns only once all of it is queued. How many chunks it
  // takes depends on timing, so only totals are asserted.
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 1;
  options.worker_threads = 1;
  options.queue_capacity = 2;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  StallingListener stall;
  concurrent->AddShardListener(0, &stall);

  // Op 1 wedges the worker inside the listener, leaving 1 unit of
  // in-flight room out of capacity 2.
  ASSERT_TRUE(concurrent->Submit(Request::Insert(1, 8)).ok());
  while (!stall.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  const std::vector<Request> batch = {
      Request::Insert(2, 8), Request::Insert(3, 8), Request::Insert(4, 8),
      Request::Insert(5, 8)};
  std::size_t accepted = 0;
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_TRUE(
        concurrent->SubmitMany(batch.data(), batch.size(), &accepted).ok());
    returned.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load(std::memory_order_acquire));
  stall.release.store(true, std::memory_order_release);
  producer.join();
  EXPECT_EQ(accepted, 4u);
  concurrent->Flush();

  const ShardStats stats = concurrent->Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.dropped_ops, 0u);
  EXPECT_EQ(stats.shards[0].objects, 5u);
  EXPECT_EQ(stats.volume, 5u * 8);
  EXPECT_EQ(stats.shards[0].failed_ops, 0u);
  // Op 1 (a batch of one) plus every op of the 4-op batch.
  EXPECT_EQ(stats.shards[0].batched_ops, 5u);
}

TEST(ConcurrentStatus, StatsSeesBatchedOpsSubmittedBefore) {
  // Stats() snapshots each shard with a marker riding the shard's FIFO, so
  // the snapshot reflects every op enqueued before the call — including
  // SubmitMany batches still queued behind a wedged worker.
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 1;
  options.worker_threads = 1;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  StallingListener stall;
  concurrent->AddShardListener(0, &stall);
  const std::vector<Request> first = {Request::Insert(0, 8)};
  ASSERT_TRUE(concurrent->SubmitMany(first.data(), first.size()).ok());
  while (!stall.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::vector<Request> more;
  for (ObjectId id = 1; id <= 100; ++id) more.push_back(Request::Insert(id, 8));
  ASSERT_TRUE(concurrent->SubmitMany(more.data(), more.size()).ok());

  ShardStats stats;
  std::thread reader([&] { stats = concurrent->Stats(); });
  // Let the marker land while the worker is still wedged.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stall.release.store(true, std::memory_order_release);
  reader.join();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].ops, 101u);
  EXPECT_EQ(stats.volume, 101u * 8);
}

// --------------------------------------------------- durability integration

TEST(ConcurrentDurability, PerShardLogsRecoverTheCheckpointedState) {
  DurabilityHub hub;
  ReallocatorSpec spec;
  spec.algorithm = "checkpointed";
  spec.durability = &hub;
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 2;
  options.worker_threads = 2;
  options.subrange_span = 1ull << 22;  // keep recovered disks small
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  // Neither marker call has a Flush before it: each shard's marker rides
  // behind every op submitted before the call, so the gauges and the op
  // counts are exact the moment it returns.
  const Trace trace = TestTrace(31, 1500);
  const std::vector<Request>& requests = trace.requests();
  std::unordered_map<ObjectId, std::uint64_t> live;
  std::uint64_t live_volume = 0;
  const auto submit = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(concurrent->Submit(requests[i]).ok());
      if (requests[i].type == Request::Type::kInsert) {
        live[requests[i].id] = requests[i].size;
        live_volume += requests[i].size;
      } else {
        live_volume -= live[requests[i].id];
        live.erase(requests[i].id);
      }
    }
  };
  const auto expect_exact = [&](std::uint64_t submitted) {
    EXPECT_EQ(concurrent->volume(), live_volume);
    const ShardStats stats = concurrent->Stats();
    std::uint64_t ops = 0;
    for (const ShardStats::PerShard& shard : stats.shards) ops += shard.ops;
    EXPECT_EQ(ops, submitted);
  };
  const std::size_t half = requests.size() / 2;
  submit(0, half);
  concurrent->CheckpointAll();
  expect_exact(half);
  submit(half, requests.size());
  concurrent->Quiesce();
  expect_exact(requests.size());
  concurrent->CheckpointAll();

  // Every shard's log ends on a checkpoint record, so a full-log recovery
  // must reproduce the shard's live map and bytes exactly.
  ASSERT_EQ(hub.log_count(), 2u);
  EXPECT_GT(hub.total_checkpoints(), 0u);
  for (std::uint32_t i = 0; i < 2; ++i) {
    const MemoryLogSink* sink = hub.memory_sink(i);
    ASSERT_NE(sink, nullptr);
    AddressSpace recovered;
    SimulatedDisk disk;
    recovered.AddListener(&disk);
    RecoveryResult result;
    ASSERT_TRUE(RecoveryManager::Recover(sink->data().data(),
                                         sink->data().size(), &recovered,
                                         &result)
                    .ok());
    EXPECT_FALSE(result.torn_tail) << "shard " << i;
    EXPECT_EQ(result.records_discarded, 0u) << "shard " << i;
    EXPECT_TRUE(recovered.Snapshot() == concurrent->shard_space(i).Snapshot())
        << "shard " << i;
    for (const auto& entry : recovered.Snapshot()) {
      EXPECT_TRUE(disk.VerifyObject(entry.first, entry.second))
          << "shard " << i << " object " << entry.first;
    }
  }
}

// ----------------------------------------------------- factory / validation

TEST(ConcurrentFactory, DegenerateOptionsFail) {
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;

  ConcurrentShardedReallocator::Options options;
  options.shard_count = 0;
  EXPECT_FALSE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  options = {};
  options.shard_count = 2;
  options.worker_threads = 4;  // more workers than shards
  EXPECT_FALSE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  options = {};
  options.queue_capacity = 0;
  EXPECT_FALSE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  spec.algorithm = "no-such-thing";
  options = {};
  EXPECT_FALSE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());
  EXPECT_TRUE(concurrent == nullptr);

  // The inner spec's shard_count is ignored: Options alone shape the pool.
  spec.algorithm = "cost-oblivious";
  spec.shard_count = 16;
  options = {};
  options.shard_count = 4;
  options.worker_threads = 2;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());
  EXPECT_EQ(std::string(concurrent->name()),
            "concurrent-sharded[4x2,hash]/cost-oblivious");
  EXPECT_EQ(concurrent->shard_count(), 4u);
  EXPECT_EQ(concurrent->worker_threads(), 2u);
  ASSERT_TRUE(concurrent->Insert(1, 100).ok());
  EXPECT_EQ(concurrent->volume(), 100u);
}

TEST(ConcurrentFactory, NonHashModesAreRejected) {
  // The threaded driver routes by hash only: size-class and least-loaded
  // routing are refused at Make with InvalidArgument, and so by everything
  // built on it. Its Options carry no rebalance fields at all.
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 4;
  options.worker_threads = 2;
  for (const RoutingPolicy routing :
       {RoutingPolicy::kSizeClass, RoutingPolicy::kLeastLoaded}) {
    options.routing = routing;
    EXPECT_EQ(
        ConcurrentShardedReallocator::Make(spec, options, &concurrent).code(),
        StatusCode::kInvalidArgument)
        << RoutingPolicyName(routing);
  }
  EXPECT_TRUE(concurrent == nullptr);

  // Hash routing has no submit-time map, so an inner algorithm whose
  // inserts can fail on a fresh id (pma: uniform slot_size) is allowed;
  // its failures surface through the synchronous calls as the shard's
  // verdict.
  spec = {};
  spec.algorithm = "pma";
  options = {};
  options.shard_count = 4;
  options.worker_threads = 2;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());
  EXPECT_TRUE(concurrent->Insert(1, 1).ok());
  EXPECT_FALSE(concurrent->Insert(2, 64).ok());
}

}  // namespace
}  // namespace cosr
