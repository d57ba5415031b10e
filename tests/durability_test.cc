// Integration test of the database durability story (Section 3): a
// checkpointed or deamortized reallocator, a block translation layer, and a
// byte-level simulated disk, driven by a block workload with checkpoints at
// arbitrary points. At every "crash point" the last checkpointed table must
// be fully recoverable, byte for byte.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "cosr/storage/address_space.h"
#include "cosr/common/random.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/db/block_translation_layer.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/durability/recovery_manager.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/simulated_disk.h"
#include "support/fault_injector.h"

namespace cosr {
namespace {

enum class Variant { kCheckpointed, kDeamortized };

class DurabilityTest
    : public ::testing::TestWithParam<std::tuple<Variant, std::uint64_t>> {};

TEST_P(DurabilityTest, EveryCrashPointRecovers) {
  const auto [variant, seed] = GetParam();
  CheckpointManager manager;
  AddressSpace space(&manager);
  SimulatedDisk disk;
  space.AddListener(&disk);
  std::unique_ptr<Reallocator> realloc;
  if (variant == Variant::kCheckpointed) {
    realloc = std::make_unique<CheckpointedReallocator>(&space);
  } else {
    realloc = std::make_unique<DeamortizedReallocator>(&space);
  }
  BlockTranslationLayer btl(&space, realloc.get());

  Rng rng(seed);
  std::uint64_t next_name = 1;
  for (int op = 0; op < 800; ++op) {
    const double dice = rng.UniformDouble();
    if (dice < 0.55 || btl.block_count() < 5) {
      // Write a block: a new one or a rewrite of an existing one.
      const std::uint64_t name = rng.Bernoulli(0.5) && next_name > 1
                                     ? rng.UniformRange(1, next_name - 1)
                                     : next_name++;
      ASSERT_TRUE(btl.Put(name, rng.UniformRange(1, 200)).ok());
    } else if (dice < 0.75) {
      const std::uint64_t name = rng.UniformRange(1, next_name - 1);
      if (btl.block_exists(name)) {
        ASSERT_TRUE(btl.Erase(name).ok());
      }
    } else if (dice < 0.85) {
      // A system-initiated checkpoint at an arbitrary moment.
      space.Checkpoint();
    }
    // Simulated crash after every operation: recovery must succeed.
    ASSERT_TRUE(btl.VerifyRecoverable(disk).ok()) << "op " << op;
  }
  // Final quiesce + checkpoint: the full table is recoverable.
  realloc->Quiesce();
  space.Checkpoint();
  ASSERT_TRUE(btl.VerifyRecoverable(disk).ok());
  EXPECT_EQ(btl.checkpointed_table().size(), btl.block_count());
}

using StateSnapshot = std::vector<std::pair<ObjectId, Extent>>;

StateSnapshot FilterRange(const StateSnapshot& all, std::uint64_t lo,
                          std::uint64_t hi) {
  StateSnapshot out;
  for (const auto& entry : all) {
    if (entry.second.offset >= lo && entry.second.end() <= hi) {
      out.push_back(entry);
    }
  }
  return out;
}

// Recovers `surviving` into a fresh space+disk and checks both the map and
// the bytes against the checkpoint snapshot recovery claims to have hit.
void ExpectRecoversTo(const std::vector<std::uint8_t>& surviving,
                      const std::map<std::uint64_t, StateSnapshot>& snapshots,
                      std::uint64_t* recovered_seq) {
  AddressSpace space;
  SimulatedDisk disk;
  space.AddListener(&disk);
  RecoveryResult result;
  ASSERT_TRUE(RecoveryManager::Recover(surviving.data(), surviving.size(),
                                       &space, &result)
                  .ok());
  static const StateSnapshot kEmpty;
  const StateSnapshot* want = &kEmpty;
  if (result.checkpoint_seq != 0) {
    auto it = snapshots.find(result.checkpoint_seq);
    ASSERT_NE(it, snapshots.end()) << "seq " << result.checkpoint_seq;
    want = &it->second;
  }
  EXPECT_TRUE(space.Snapshot() == *want)
      << "recovered map diverges at seq " << result.checkpoint_seq;
  for (const auto& entry : space.Snapshot()) {
    EXPECT_TRUE(disk.VerifyObject(entry.first, entry.second))
        << "object " << entry.first;
  }
  if (recovered_seq != nullptr) *recovered_seq = result.checkpoint_seq;
}

// Satellite coverage for the sharded facade: each shard journals into its
// own log, so crashing one shard's log early must not disturb what its
// siblings can recover.
class ShardedDurabilityTest : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(ShardedDurabilityTest, PerShardCrashLeavesSiblingsIntact) {
  const std::uint32_t shard_count = GetParam();
  constexpr std::uint64_t kSpan = 1ull << 22;

  DurabilityHub hub;
  ReallocatorSpec spec;
  spec.algorithm = "checkpointed";
  spec.durability = &hub;
  ShardedReallocator::Options options;
  options.shard_count = shard_count;
  options.routing = RoutingPolicy::kHashId;
  options.subrange_span = kSpan;
  AddressSpace parent;
  std::unique_ptr<ShardedReallocator> facade;
  ASSERT_TRUE(ShardedReallocator::Make(spec, options, &parent, &facade).ok());

  std::vector<std::map<std::uint64_t, StateSnapshot>> snapshots(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    const std::uint64_t base = std::uint64_t{i} * kSpan;
    facade->shard_manager(i)->SetCheckpointHook(
        [&snapshots, &parent, i, base](std::uint64_t seq) {
          snapshots[i][seq] = FilterRange(parent.Snapshot(), base, base + kSpan);
        });
  }

  Rng rng(5);
  std::uint64_t next_id = 1;
  std::vector<ObjectId> live;
  for (int op = 0; op < 600; ++op) {
    if (rng.UniformDouble() < 0.6 || live.size() < 8) {
      const ObjectId id = next_id++;
      ASSERT_TRUE(facade->Insert(id, rng.UniformRange(1, 200)).ok());
      live.push_back(id);
    } else {
      const std::size_t pick = rng.UniformU64(live.size());
      ASSERT_TRUE(facade->Delete(live[pick]).ok());
      live[pick] = live.back();
      live.pop_back();
    }
    if (op % 97 == 96) facade->CheckpointAll();
  }
  facade->Quiesce();
  facade->CheckpointAll();

  ASSERT_EQ(hub.log_count(), shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    ASSERT_FALSE(snapshots[i].empty()) << "shard " << i;
  }

  // For each victim shard in turn: tear its log roughly mid-way, recover
  // it to an earlier checkpoint, and recover every sibling's *full* log —
  // which must still land on its final checkpoint. Per-shard logs mean a
  // shard's crash horizon is entirely its own.
  for (std::uint32_t victim = 0; victim < shard_count; ++victim) {
    const MemoryLogSink& sink = *hub.memory_sink(victim);
    const FaultInjector injector(sink);
    ASSERT_GT(injector.record_count(), 2u);
    const std::size_t mid = injector.record_count() / 2;

    std::uint64_t victim_seq = 0;
    ExpectRecoversTo(injector.CrashAfterRecord(mid), snapshots[victim],
                     &victim_seq);
    EXPECT_LT(victim_seq, snapshots[victim].rbegin()->first)
        << "mid-log crash should land before the final checkpoint";

    for (std::uint32_t sibling = 0; sibling < shard_count; ++sibling) {
      if (sibling == victim) continue;
      const MemoryLogSink& other = *hub.memory_sink(sibling);
      std::vector<std::uint8_t> full(other.data());
      std::uint64_t sibling_seq = 0;
      ExpectRecoversTo(full, snapshots[sibling], &sibling_seq);
      EXPECT_EQ(sibling_seq, snapshots[sibling].rbegin()->first)
          << "sibling " << sibling << " of victim " << victim;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedDurabilityTest,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<std::uint32_t>&
                                info) {
                           return "k" + std::to_string(info.param);
                         });

INSTANTIATE_TEST_SUITE_P(
    Variants, DurabilityTest,
    ::testing::Combine(::testing::Values(Variant::kCheckpointed,
                                         Variant::kDeamortized),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<DurabilityTest::ParamType>& info) {
      const Variant variant = std::get<0>(info.param);
      const std::uint64_t seed = std::get<1>(info.param);
      std::string name = variant == Variant::kCheckpointed ? "checkpointed"
                                                           : "deamortized";
      return name + "_seed" + std::to_string(seed);
    });

}  // namespace
}  // namespace cosr
