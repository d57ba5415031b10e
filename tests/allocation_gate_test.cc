// Heap allocations per steady-state request. This binary replaces the
// global operator new with a counting one, runs a 400k-request churn
// (16 MiB live volume, seed 7) through the K=1 synchronous facade, or
// through the K=8 threaded driver (synchronous round trips, per-op
// Submit, or 64-op SubmitMany), and gates the allocations made during the
// second half of the trace, per request. The counter is global, so the
// threaded driver's workers count too. The synchronous counts are
// deterministic for a given seed, so those bounds are exact gates, not
// timing tolerances. The fire-and-forget cells' counts depend on how far
// the producer runs ahead, so their bound is the worst case the node
// pools can reach (see the cells).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cosr/durability/durability_hub.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/concurrent_sharded_reallocator.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/workload/trace.h"
#include "cosr/workload/workload_generator.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Every replacement is out of line, so the compiler never pairs an
// inlined free() with a new expression (-Wmismatched-new-delete). The
// aligned overloads count too: the storage layer takes its big chunks
// (cosr/common/huge_pages.h) through them.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     std::align_val_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align =
      std::max(static_cast<std::size_t>(alignment), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? 1 : size) == 0) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       std::align_val_t alignment) {
  return ::operator new(size, alignment);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace cosr {
namespace {

/// How the trace reaches the facade.
enum class Drive {
  kInline,      // synchronous calls on the K=1 ShardedReallocator
  kRoundTrip,   // synchronous calls on the K=8 threaded driver
  kSubmit,      // per-op Submit on the K=8 threaded driver
  kSubmitMany,  // 64-op SubmitMany on the K=8 threaded driver
};

struct GateCase {
  const char* algorithm;
  bool file_log;
  Drive drive;
  std::uint32_t workers;  // threaded drives only
  double max_allocations_per_request;
};

/// The fire-and-forget cells' in-flight cap per shard. A shard's node
/// pool never holds more than this plus one node per producer, so the
/// cap fixes the worst-case growth the bound below must absorb.
constexpr std::size_t kGateQueueCapacity = 16;
constexpr std::size_t kGateBatch = 64;

/// Allocations per request over the second half of the churn.
double SteadyStateAllocationsPerRequest(const GateCase& gate) {
  const Trace trace = MakeChurnTrace({.operations = 400000,
                                      .target_live_volume = 16u << 20,
                                      .min_size = 1,
                                      .max_size = 4096,
                                      .seed = 7});
  std::unique_ptr<DurabilityHub> hub;
  ReallocatorSpec spec;
  spec.algorithm = gate.algorithm;
  if (gate.file_log) {
    // The durable-dbblocks log policy: a file sink, one fsync per 32
    // checkpoints, compaction every 8 MiB of log.
    DurabilityHub::Options options;
    options.sink_kind = DurabilityHub::SinkKind::kFile;
    options.file_prefix = ::testing::TempDir() + "allocation_gate_" +
                          gate.algorithm + "_";
    options.group_commit.max_unsynced_checkpoints = 32;
    options.group_commit.compaction_threshold_bytes = 8ull << 20;
    hub = std::make_unique<DurabilityHub>(options);
    spec.durability = hub.get();
  }
  AddressSpace parent;
  std::unique_ptr<Reallocator> facade;
  Status made;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  if (gate.drive != Drive::kInline) {
    ConcurrentShardedReallocator::Options options;
    options.shard_count = 8;
    options.worker_threads = gate.workers;
    if (gate.drive != Drive::kRoundTrip) {
      options.queue_capacity = kGateQueueCapacity;
    }
    made = ConcurrentShardedReallocator::Make(spec, options, &concurrent);
  } else {
    ShardedReallocator::Options options;
    options.shard_count = 1;
    std::unique_ptr<ShardedReallocator> inline_facade;
    made = ShardedReallocator::Make(spec, options, &parent, &inline_facade);
    facade = std::move(inline_facade);
  }
  EXPECT_TRUE(made.ok()) << made.ToString();
  if (!made.ok()) return 0.0;

  const std::vector<Request>& requests = trace.requests();
  const std::size_t half = requests.size() / 2;
  if (gate.drive == Drive::kSubmit || gate.drive == Drive::kSubmitMany) {
    // Each half is submitted, then flushed, so the count covers exactly
    // the second half's submissions and executions.
    const std::size_t step = gate.drive == Drive::kSubmit ? 1 : kGateBatch;
    const auto submit = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; i += step) {
        if (gate.drive == Drive::kSubmit) {
          concurrent->Submit(requests[i]);
        } else {
          concurrent->SubmitMany(&requests[i], std::min(step, end - i));
        }
      }
      concurrent->Flush();
    };
    submit(0, half);
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    submit(half, requests.size());
    const std::uint64_t counted =
        g_allocations.load(std::memory_order_relaxed) - before;
    std::uint64_t failed = 0;
    for (const ShardStats::PerShard& shard : concurrent->Stats().shards) {
      failed += shard.failed_ops;
    }
    EXPECT_EQ(failed, 0u);
    return static_cast<double>(counted) /
           static_cast<double>(requests.size() - half);
  }
  if (concurrent != nullptr) facade = std::move(concurrent);

  std::uint64_t before = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i == half) before = g_allocations.load(std::memory_order_relaxed);
    const Request& request = requests[i];
    const Status status = request.type == Request::Type::kInsert
                              ? facade->Insert(request.id, request.size)
                              : facade->Delete(request.id);
    if (!status.ok()) {
      ADD_FAILURE() << "request " << i << ": " << status.ToString();
      return 0.0;
    }
  }
  const std::uint64_t counted =
      g_allocations.load(std::memory_order_relaxed) - before;
  return static_cast<double>(counted) /
         static_cast<double>(requests.size() - half);
}

class AllocationGateTest : public ::testing::TestWithParam<GateCase> {};

TEST_P(AllocationGateTest, SteadyStateRequestsStayUnderTheBound) {
  const GateCase& gate = GetParam();
  const double per_request = SteadyStateAllocationsPerRequest(gate);
  RecordProperty("allocations_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, gate.max_allocations_per_request)
      << gate.algorithm << (gate.file_log ? " + file log" : "") << " drive "
      << static_cast<int>(gate.drive) << " W=" << gate.workers;
}

INSTANTIATE_TEST_SUITE_P(
    K1Facade, AllocationGateTest,
    // Measured: 2, 4 and 4 allocations in 200k requests for the first
    // three, 28 with the file log; 5 for deamortized and 22 with the file
    // log (its flush log is a vector reused across flushes). Slot-table
    // growth and OffsetIndex page splits allocate nothing per request.
    // A threaded round trip queues a node on the caller's stack, beside
    // the completion it waits on, so the driver adds nothing to the
    // shards' own growth (measured 0.0003).
    //
    // Fire-and-forget: each shard's pool holds at most 16 + 1 nodes, and
    // a node's vector is reserved to each grant (<= 16 ops) it carries,
    // so it reallocates at most 16 times. All growth, even if it all
    // lands in the counted half, is <= 8 * 17 * (1 + 16) = 2312
    // allocations: 0.0116 per request, plus the shards' own 0.0003.
    // Measured: 0.0003-0.0004 in every cell.
    ::testing::Values(
        GateCase{"first-fit", false, Drive::kInline, 0, 0.00005},
        GateCase{"cost-oblivious", false, Drive::kInline, 0, 0.00005},
        GateCase{"checkpointed", false, Drive::kInline, 0, 0.00005},
        GateCase{"checkpointed", true, Drive::kInline, 0, 0.0003},
        GateCase{"deamortized", false, Drive::kInline, 0, 0.00005},
        GateCase{"deamortized", true, Drive::kInline, 0, 0.0003},
        GateCase{"cost-oblivious", false, Drive::kRoundTrip, 3, 0.001},
        GateCase{"cost-oblivious", false, Drive::kSubmit, 1, 0.012},
        GateCase{"cost-oblivious", false, Drive::kSubmit, 3, 0.012},
        GateCase{"cost-oblivious", false, Drive::kSubmitMany, 1, 0.012},
        GateCase{"cost-oblivious", false, Drive::kSubmitMany, 3, 0.012}),
    [](const ::testing::TestParamInfo<GateCase>& info) {
      std::string name = info.param.algorithm;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      name += info.param.file_log ? "_file_log" : "";
      switch (info.param.drive) {
        case Drive::kInline:
          return name;
        case Drive::kRoundTrip:
          return name + "_threaded";
        case Drive::kSubmit:
          return name + "_submit_w" + std::to_string(info.param.workers);
        case Drive::kSubmitMany:
          return name + "_submit_many_w" + std::to_string(info.param.workers);
      }
      return name;
    });

}  // namespace
}  // namespace cosr
