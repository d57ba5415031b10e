// The cross-shard rebalancer, from the planning heuristics up through live
// migrations on the inline facade (the threaded driver routes by hash
// only and rejects rebalance; concurrent_sharded_test pins that):
//
//  * PlanRebalance / SelectRebalanceVictims — pure-function unit tests:
//    hot/cold selection, thresholds, batch budgets, anti-ping-pong.
//  * Make-time gate — rebalance over an algorithm whose inserts can fail
//    on a fresh id (pma) is rejected.
//  * Synchronous migration correctness — after a churn drive with the
//    facade's rebalance scan running, every surviving object's bytes still
//    verify against a SimulatedDisk, the facade's live set matches a model
//    replay (and a fresh replay of the surviving set), ids resolve through
//    shard_of across migrations, and migration stats balance exactly
//    (sum of out-migrations == sum of in-migrations == the extra places
//    the parent saw).
//  * Deferred deletes — a scan stops at the first victim whose source
//    delete would be deferred (deamortized mid-flush), so no id is ever
//    placed on two shards.
//  * K=1 — the rebalancer never acts on a one-shard facade.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cosr/common/random.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/shard_rebalancer.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/simulated_disk.h"
#include "cosr/workload/trace.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

// ----------------------------------------------------------- PlanRebalance

TEST(PlanRebalanceTest, SingleShardNeverMoves) {
  RebalanceOptions options;
  options.min_shard_footprint = 0;
  EXPECT_FALSE(PlanRebalance({1000}, options).has_move);
  EXPECT_FALSE(PlanRebalance({}, options).has_move);
}

TEST(PlanRebalanceTest, PicksHottestSourceAndColdestDestination) {
  RebalanceOptions options;
  options.hot_footprint_ratio = 1.25;
  options.min_shard_footprint = 0;
  // Mean 1000; shard 2 at 2.2x mean is hot, shard 1 is the coldest.
  const RebalancePlan plan = PlanRebalance({900, 300, 2200, 600}, options);
  ASSERT_TRUE(plan.has_move);
  EXPECT_EQ(plan.hot, 2u);
  EXPECT_EQ(plan.cold, 1u);
  // Drain down to the mean (it exceeds the cold frontier).
  EXPECT_EQ(plan.target_footprint, 1000u);
}

TEST(PlanRebalanceTest, BalancedLoadsProduceNoPlan) {
  RebalanceOptions options;
  options.hot_footprint_ratio = 1.25;
  options.min_shard_footprint = 0;
  EXPECT_FALSE(PlanRebalance({1000, 1100, 950, 1050}, options).has_move);
}

TEST(PlanRebalanceTest, MinFootprintSuppressesTinyShards) {
  RebalanceOptions options;
  options.hot_footprint_ratio = 1.25;
  options.min_shard_footprint = 1u << 12;
  // 2.5x the mean, but the whole facade is tiny: migration overhead would
  // dwarf the imbalance.
  EXPECT_FALSE(PlanRebalance({500, 100}, options).has_move);
}

// -------------------------------------------------- SelectRebalanceVictims

std::vector<std::pair<ObjectId, Extent>> Objects(
    std::initializer_list<std::pair<std::uint64_t, std::uint64_t>>
        offset_lengths) {
  std::vector<std::pair<ObjectId, Extent>> objects;
  ObjectId id = 1;
  for (const auto& [offset, length] : offset_lengths) {
    objects.push_back({id++, Extent{offset, length}});
  }
  return objects;
}

TEST(SelectVictimsTest, DrainsFromTheFrontierDown) {
  RebalanceOptions options;
  options.max_batch_objects = 32;
  options.max_batch_bytes = 1u << 16;
  // Frontier at 1000; target 600: the two highest-offset objects clear it.
  const auto victims = SelectRebalanceVictims(
      Objects({{0, 100}, {500, 100}, {800, 100}, {900, 100}}), options,
      /*src_footprint=*/1000, /*dst_footprint=*/100,
      /*target_footprint=*/600);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0].second.offset, 900u);  // highest offset first
  EXPECT_EQ(victims[1].second.offset, 800u);
}

TEST(SelectVictimsTest, BatchBudgetsCapTheDrain) {
  RebalanceOptions options;
  options.max_batch_objects = 2;
  options.max_batch_bytes = 1u << 16;
  const auto by_count = SelectRebalanceVictims(
      Objects({{100, 50}, {200, 50}, {300, 50}, {400, 50}}), options,
      /*src_footprint=*/450, /*dst_footprint=*/0, /*target_footprint=*/0);
  EXPECT_EQ(by_count.size(), 2u);

  options.max_batch_objects = 32;
  options.max_batch_bytes = 60;  // second victim would cross the byte cap
  const auto by_bytes = SelectRebalanceVictims(
      Objects({{100, 50}, {200, 50}, {300, 50}, {400, 50}}), options,
      /*src_footprint=*/450, /*dst_footprint=*/0, /*target_footprint=*/0);
  EXPECT_EQ(by_bytes.size(), 2u);  // 50 then 100 bytes >= cap: stop after
}

TEST(SelectVictimsTest, AntiPingPongStopsBeforeInvertingTheImbalance) {
  RebalanceOptions options;
  options.max_batch_objects = 32;
  options.max_batch_bytes = 1u << 16;
  // Draining the 400-byte object would leave src at ~100 while dst grows
  // to 500 — a worse imbalance in the other direction. Nothing moves.
  const auto victims = SelectRebalanceVictims(
      Objects({{0, 100}, {100, 400}}), options,
      /*src_footprint=*/500, /*dst_footprint=*/100, /*target_footprint=*/0);
  EXPECT_TRUE(victims.empty());
}

// --------------------------------------- synchronous migration correctness

TEST(ShardRebalancerTest, RebalanceRejectsFallibleInsertsAtMake) {
  // A migration's destination insert must not fail, so rebalance over pma
  // (inserts can fail on a fresh id) is refused up front.
  ReallocatorSpec spec;
  spec.algorithm = "pma";
  AddressSpace parent;
  ShardedReallocator::Options options;
  options.shard_count = 4;
  options.rebalance = true;
  std::unique_ptr<ShardedReallocator> sharded;
  EXPECT_EQ(ShardedReallocator::Make(spec, options, &parent, &sharded).code(),
            StatusCode::kFailedPrecondition);

  // The inline facade updates its map only after the shard executed, so
  // map-keeping routing alone stays allowed there.
  options.rebalance = false;
  options.routing = RoutingPolicy::kSizeClass;
  ASSERT_TRUE(ShardedReallocator::Make(spec, options, &parent, &sharded).ok());
  EXPECT_TRUE(sharded->Insert(1, 1).ok());
}

/// Counts the parent's places and removes: every migration is one extra
/// remove and one extra place beyond the trace's own requests.
class PlaceRemoveCounter : public SpaceListener {
 public:
  void OnPlace(ObjectId, const Extent& extent) override {
    ++places;
    placed_bytes += extent.length;
  }
  void OnRemove(ObjectId, const Extent&) override { ++removes; }

  std::uint64_t places = 0;
  std::uint64_t placed_bytes = 0;
  std::uint64_t removes = 0;
};

/// Drives a churn trace through a K-shard facade whose rebalance scan runs
/// every 64 requests, then checks the full ledger:
/// model-exact live set, byte-exact contents, resolvable ids, balanced
/// migration stats, and equality (as id->size sets) with a fresh replay of
/// the surviving objects.
void RunMigrationDifferential(const std::string& algorithm) {
  SCOPED_TRACE(algorithm);
  const Trace trace = MakeChurnTrace({.operations = 4000,
                                      .target_live_volume = 1u << 16,
                                      .min_size = 1,
                                      .max_size = 512,
                                      .distribution = SizeDistribution::kZipf,
                                      .seed = 21});

  AddressSpace parent;
  SimulatedDisk disk;
  PlaceRemoveCounter counter;
  parent.AddListener(&disk);
  parent.AddListener(&counter);
  ReallocatorSpec spec;
  spec.algorithm = algorithm;
  ShardedReallocator::Options options;
  options.shard_count = 4;
  options.rebalance = true;
  options.rebalance_options.hot_footprint_ratio = 1.10;
  options.rebalance_options.min_shard_footprint = 1u << 10;
  options.rebalance_options.check_interval = 64;
  // Keep shard bases small: the SimulatedDisk materializes bytes at
  // absolute offsets, so the production 1<<44 span would ask for
  // terabyte buffers.
  options.subrange_span = 1ull << 22;
  std::unique_ptr<ShardedReallocator> sharded;
  ASSERT_TRUE(ShardedReallocator::Make(spec, options, &parent, &sharded).ok());

  std::unordered_map<ObjectId, std::uint64_t> model;
  std::uint64_t inserts = 0, inserted_bytes = 0, deletes = 0;
  for (const Request& request : trace.requests()) {
    if (request.type == Request::Type::kInsert) {
      ASSERT_TRUE(sharded->Insert(request.id, request.size).ok());
      model.emplace(request.id, request.size);
      ++inserts;
      inserted_bytes += request.size;
    } else {
      ASSERT_TRUE(sharded->Delete(request.id).ok());
      model.erase(request.id);
      ++deletes;
    }
  }
  ASSERT_GT(sharded->Stats().migrations, 0u)
      << "churn at 1.10x trigger never migrated: the test is vacuous";

  // Live set == model, contents byte-exact, ids resolve to the shard that
  // actually holds them.
  const auto snapshot = parent.Snapshot();
  ASSERT_EQ(snapshot.size(), model.size());
  for (const auto& [id, extent] : snapshot) {
    auto it = model.find(id);
    ASSERT_NE(it, model.end()) << "object " << id;
    EXPECT_EQ(extent.length, it->second) << "object " << id;
    EXPECT_TRUE(disk.VerifyObject(id, extent)) << "object " << id;
    const std::uint32_t shard = sharded->shard_of(id);
    const std::uint64_t base = shard * options.subrange_span;
    EXPECT_TRUE(extent.offset >= base &&
                extent.end() <= base + options.subrange_span)
        << "object " << id << " resolves to shard " << shard
        << " but lives at " << ToString(extent);
  }
  EXPECT_TRUE(parent.SelfCheck());

  // The migration ledger balances exactly.
  const ShardStats stats = sharded->Stats();
  std::uint64_t out = 0, in = 0, out_bytes = 0;
  for (const ShardStats::PerShard& shard : stats.shards) {
    out += shard.migrations;
    in += shard.migrations_in;
    out_bytes += shard.migrated_bytes;
  }
  EXPECT_EQ(out, in);
  EXPECT_EQ(out, counter.places - inserts);
  EXPECT_EQ(out, counter.removes - deletes);
  EXPECT_EQ(out_bytes, counter.placed_bytes - inserted_bytes);
  EXPECT_EQ(stats.migrations, out);
  EXPECT_EQ(stats.migrated_bytes, out_bytes);

  // A fresh facade replaying just the surviving set reaches the same live
  // state (same ids, sizes, volume) — migration changed layout, not state.
  AddressSpace fresh_parent;
  SimulatedDisk fresh_disk;
  fresh_parent.AddListener(&fresh_disk);
  ShardedReallocator::Options fresh_options = options;
  fresh_options.rebalance = false;
  std::unique_ptr<ShardedReallocator> fresh;
  ASSERT_TRUE(
      ShardedReallocator::Make(spec, fresh_options, &fresh_parent, &fresh)
          .ok());
  for (const auto& [id, size] : model) {
    ASSERT_TRUE(fresh->Insert(id, size).ok());
  }
  EXPECT_EQ(fresh->volume(), sharded->volume());
  const auto fresh_snapshot = fresh_parent.Snapshot();
  ASSERT_EQ(fresh_snapshot.size(), snapshot.size());
  for (const auto& [id, extent] : fresh_snapshot) {
    EXPECT_TRUE(fresh_disk.VerifyObject(id, extent)) << "object " << id;
  }
}

TEST(ShardRebalancerTest, MigrationDifferentialFirstFit) {
  RunMigrationDifferential("first-fit");
}

TEST(ShardRebalancerTest, MigrationDifferentialCostOblivious) {
  RunMigrationDifferential("cost-oblivious");
}

TEST(ShardRebalancerTest, DeferredDeleteStopKeepsEachIdOnOneShard) {
  // A deamortized source mid-flush logs deletes instead of applying them,
  // so a migration out of it would leave the id placed while the
  // destination re-places it. A victim's own delete can start that flush,
  // which is why the scan re-checks DeletesDetachImmediately per victim.
  // This run must reach that stop: some scan leaves its source mid-flush
  // (without the re-check, the destination's place of a still-placed id
  // aborts). After every request each live id sits in exactly one shard's
  // view, the one shard_of names.
  // Size-class routing builds large imbalances, a small epsilon makes
  // flushes frequent, small objects keep each victim's flush work share
  // short of finishing one, and a sparse scan cadence lets each scan pick
  // many victims.
  const Trace trace = MakeChurnTrace({.operations = 4000,
                                      .target_live_volume = 1u << 16,
                                      .min_size = 1,
                                      .max_size = 64,
                                      .distribution = SizeDistribution::kZipf,
                                      .seed = 1});
  AddressSpace parent;
  ReallocatorSpec spec;
  spec.algorithm = "deamortized";
  spec.epsilon = 0.05;
  ShardedReallocator::Options options;
  options.shard_count = 2;
  options.routing = RoutingPolicy::kSizeClass;
  options.subrange_span = 1ull << 22;
  options.rebalance = true;
  options.rebalance_options.hot_footprint_ratio = 1.0;
  options.rebalance_options.min_shard_footprint = 0;
  options.rebalance_options.check_interval = 256;
  std::unique_ptr<ShardedReallocator> sharded;
  ASSERT_TRUE(ShardedReallocator::Make(spec, options, &parent, &sharded).ok());

  std::unordered_set<ObjectId> live;
  std::vector<std::uint64_t> migrations(options.shard_count, 0);
  std::uint64_t scans_leaving_source_mid_flush = 0;
  for (const Request& request : trace.requests()) {
    if (request.type == Request::Type::kInsert) {
      ASSERT_TRUE(sharded->Insert(request.id, request.size).ok());
      live.insert(request.id);
    } else {
      ASSERT_TRUE(sharded->Delete(request.id).ok());
      live.erase(request.id);
    }
    const ShardStats stats = sharded->Stats();
    for (std::uint32_t i = 0; i < options.shard_count; ++i) {
      if (stats.shards[i].migrations > migrations[i] &&
          !sharded->shard(i).DeletesDetachImmediately()) {
        ++scans_leaving_source_mid_flush;
      }
      migrations[i] = stats.shards[i].migrations;
    }
    for (const ObjectId id : live) {
      const std::uint32_t owner = sharded->shard_of(id);
      ASSERT_LT(owner, options.shard_count) << "object " << id;
      for (std::uint32_t i = 0; i < options.shard_count; ++i) {
        ASSERT_EQ(sharded->shard_view(i).contains(id), i == owner)
            << "object " << id << " on shard " << i;
      }
    }
  }
  EXPECT_GT(scans_leaving_source_mid_flush, 0u)
      << "no scan reached the deferred-delete stop: the test is vacuous";
}

TEST(ShardRebalancerTest, SingleShardFacadeNeverActs) {
  AddressSpace parent;
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ShardedReallocator::Options options;
  options.shard_count = 1;
  options.rebalance = true;
  options.rebalance_options.hot_footprint_ratio = 1.0;
  options.rebalance_options.min_shard_footprint = 0;
  options.rebalance_options.check_interval = 1;  // a scan after every op
  std::unique_ptr<ShardedReallocator> sharded;
  ASSERT_TRUE(ShardedReallocator::Make(spec, options, &parent, &sharded).ok());
  Rng rng(3);
  for (ObjectId id = 1; id <= 200; ++id) {
    ASSERT_TRUE(sharded->Insert(id, 1 + rng.UniformU64(128)).ok());
    EXPECT_EQ(sharded->Stats().shards[0].migrations_in, 0u);
  }
  EXPECT_EQ(sharded->Stats().shards[0].migrations, 0u);
  EXPECT_EQ(sharded->Stats().migrations, 0u);
}

}  // namespace
}  // namespace cosr
