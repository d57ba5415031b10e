// ShardCounters under concurrent mutation: K owner threads store their own
// shard's volume and reserved-footprint gauges while a reader sums them —
// the two per-shard numbers other threads read while the shards run (the
// least-loaded router, the rebalance scan and the facades' volume() /
// reserved_footprint()). Every other per-shard number lives in the
// shard's ShardStats::PerShard record, which only its owner touches.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cosr/service/shard_stats.h"

namespace cosr {
namespace {

/// Deterministic per-thread op mixer (splitmix-style).
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TEST(ShardCountersTest, ReaderSumsGaugesWhileOwnersStore) {
  constexpr std::uint32_t kShards = 8;
  constexpr std::uint64_t kOpsPerShard = 50000;

  std::vector<ShardCounters> blocks(kShards);

  // Each owner's volume gauge climbs by r % 97 per op, and its reserved
  // gauge sits r % 31 above it: what the final stores should add up to,
  // computed sequentially.
  std::uint64_t expected_volume = 0;
  std::uint64_t expected_reserved = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    std::uint64_t volume = 0, reserved = 0;
    for (std::uint64_t i = 0; i < kOpsPerShard; ++i) {
      const std::uint64_t r = Mix(s * kOpsPerShard + i);
      volume += r % 97;
      reserved = volume + r % 31;
    }
    expected_volume += volume;
    expected_reserved += reserved;
  }

  // One owner thread per block (the single-writer discipline), all
  // replaying their streams concurrently.
  std::atomic<bool> go{false};
  std::vector<std::thread> owners;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    owners.emplace_back([&, s] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t volume = 0;
      for (std::uint64_t i = 0; i < kOpsPerShard; ++i) {
        const std::uint64_t r = Mix(s * kOpsPerShard + i);
        volume += r % 97;
        blocks[s].volume.store(volume, std::memory_order_relaxed);
        blocks[s].reserved_footprint.store(volume + r % 31,
                                           std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);

  // Mid-run sums from this (non-owner) thread: each volume gauge only
  // climbs here, so the summed volume is monotone and bounded by the final
  // sum. The reserved gauge is not compared with the volume mid-run —
  // relaxed gauges only line up after a drain barrier (the documented
  // contract).
  std::uint64_t last_volume = 0;
  for (int poll = 0; poll < 200; ++poll) {
    std::uint64_t volume = 0;
    std::uint64_t reserved = 0;
    for (const ShardCounters& block : blocks) {
      volume += block.volume.load(std::memory_order_relaxed);
      reserved += block.reserved_footprint.load(std::memory_order_relaxed);
    }
    EXPECT_GE(volume, last_volume);
    EXPECT_LE(volume, expected_volume);
    EXPECT_LE(reserved, expected_volume + kShards * 30);
    last_volume = volume;
    std::this_thread::yield();
  }
  for (std::thread& owner : owners) owner.join();

  std::uint64_t volume = 0;
  std::uint64_t reserved = 0;
  for (const ShardCounters& block : blocks) {
    volume += block.volume.load(std::memory_order_relaxed);
    reserved += block.reserved_footprint.load(std::memory_order_relaxed);
  }
  EXPECT_EQ(volume, expected_volume);
  EXPECT_EQ(reserved, expected_reserved);
}

TEST(ShardCountersTest, BlocksAreCacheLineAligned) {
  // The no-false-sharing layout the hot path depends on.
  static_assert(alignof(ShardCounters) >= 64, "one cache line per shard");
  static_assert(sizeof(ShardCounters) % 64 == 0, "no straddling blocks");
  std::vector<ShardCounters> blocks(4);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&blocks[i]) % 64, 0u);
  }
}

}  // namespace
}  // namespace cosr
