// Heap allocations per steady-state request. This binary replaces the
// global operator new with a counting one, runs a 400k-request churn
// (16 MiB live volume, seed 7) through the K=1 synchronous facade, or
// through synchronous round trips on the K=8, W=3 threaded driver, and
// gates the allocations made during the second half of the trace, per
// request. The counter is global, so the threaded driver's workers count
// too. The count is deterministic for a given seed, so the bounds are
// exact gates, not timing tolerances.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

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

struct GateCase {
  const char* algorithm;
  bool file_log;
  bool threaded;  // K=8, W=3 ConcurrentShardedReallocator, not K=1 inline
  double max_allocations_per_request;
};

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
  if (gate.threaded) {
    ConcurrentShardedReallocator::Options options;
    options.shard_count = 8;
    options.worker_threads = 3;
    std::unique_ptr<ConcurrentShardedReallocator> concurrent;
    made = ConcurrentShardedReallocator::Make(spec, options, &concurrent);
    facade = std::move(concurrent);
  } else {
    ShardedReallocator::Options options;
    options.shard_count = 1;
    std::unique_ptr<ShardedReallocator> inline_facade;
    made = ShardedReallocator::Make(spec, options, &parent, &inline_facade);
    facade = std::move(inline_facade);
  }
  EXPECT_TRUE(made.ok()) << made.ToString();
  if (!made.ok()) return 0.0;

  const std::size_t half = trace.requests().size() / 2;
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < trace.requests().size(); ++i) {
    if (i == half) before = g_allocations.load(std::memory_order_relaxed);
    const Request& request = trace.requests()[i];
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
         static_cast<double>(trace.requests().size() - half);
}

class AllocationGateTest : public ::testing::TestWithParam<GateCase> {};

TEST_P(AllocationGateTest, SteadyStateRequestsStayUnderTheBound) {
  const GateCase& gate = GetParam();
  const double per_request = SteadyStateAllocationsPerRequest(gate);
  RecordProperty("allocations_per_request", std::to_string(per_request));
  EXPECT_LE(per_request, gate.max_allocations_per_request)
      << gate.algorithm << (gate.file_log ? " + file log" : "")
      << (gate.threaded ? " threaded" : "");
}

INSTANTIATE_TEST_SUITE_P(
    K1Facade, AllocationGateTest,
    // Measured: 2, 4 and 4 allocations in 200k requests for the first
    // three, 28 with the file log; 5 for deamortized and 22 with the file
    // log (its flush log is a vector reused across flushes). Slot-table
    // growth and OffsetIndex page splits allocate nothing per request.
    // A threaded round trip queues one single-op item vector and one
    // queue node; the completion it waits on is on the caller's stack.
    ::testing::Values(GateCase{"first-fit", false, false, 0.00005},
                      GateCase{"cost-oblivious", false, false, 0.00005},
                      GateCase{"checkpointed", false, false, 0.00005},
                      GateCase{"checkpointed", true, false, 0.0003},
                      GateCase{"deamortized", false, false, 0.00005},
                      GateCase{"deamortized", true, false, 0.0003},
                      GateCase{"cost-oblivious", false, true, 2.01}),
    [](const ::testing::TestParamInfo<GateCase>& info) {
      std::string name = info.param.algorithm;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (info.param.file_log ? "_file_log" : "") +
             (info.param.threaded ? "_threaded" : "");
    });

}  // namespace
}  // namespace cosr
