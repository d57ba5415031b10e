// E10 — google-benchmark microbenchmarks: request throughput of every
// implementation on steady-state churn, plus the core structure across
// epsilons and size spreads. Not a paper table — the practical sanity check
// that the data structure overheads are laptop-friendly.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "cosr/storage/address_space.h"
#include "cosr/alloc/best_fit_allocator.h"
#include "cosr/alloc/buddy_allocator.h"
#include "cosr/alloc/first_fit_allocator.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/realloc/logging_compacting_reallocator.h"
#include "cosr/realloc/size_class_reallocator.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

Trace SharedTrace() {
  return MakeChurnTrace({.operations = 20000,
                         .target_live_volume = 1u << 20,
                         .min_size = 1,
                         .max_size = 1024,
                         .seed = 99});
}

void Replay(Reallocator& realloc, const Trace& trace) {
  for (const Request& r : trace.requests()) {
    if (r.type == Request::Type::kInsert) {
      benchmark::DoNotOptimize(realloc.Insert(r.id, r.size));
    } else {
      benchmark::DoNotOptimize(realloc.Delete(r.id));
    }
  }
  realloc.Quiesce();
}

template <typename Realloc>
void BM_Churn(benchmark::State& state) {
  const Trace trace = SharedTrace();
  for (auto _ : state) {
    AddressSpace space;
    Realloc realloc(&space);
    Replay(realloc, trace);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}

template <typename Realloc>
void BM_ChurnCheckpointed(benchmark::State& state) {
  const Trace trace = SharedTrace();
  for (auto _ : state) {
    CheckpointManager manager;
    AddressSpace space(&manager);
    Realloc realloc(&space);
    Replay(realloc, trace);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}

BENCHMARK(BM_Churn<FirstFitAllocator>)->Name("churn/first-fit");
BENCHMARK(BM_Churn<BestFitAllocator>)->Name("churn/best-fit");
BENCHMARK(BM_Churn<BuddyAllocator>)->Name("churn/buddy");
BENCHMARK(BM_Churn<LoggingCompactingReallocator>)->Name("churn/log-compact");
BENCHMARK(BM_Churn<SizeClassReallocator>)->Name("churn/size-class");
BENCHMARK(BM_Churn<CostObliviousReallocator>)->Name("churn/cost-oblivious");
BENCHMARK(BM_ChurnCheckpointed<CheckpointedReallocator>)
    ->Name("churn/checkpointed");
BENCHMARK(BM_ChurnCheckpointed<DeamortizedReallocator>)
    ->Name("churn/deamortized");

void BM_EpsilonSweep(benchmark::State& state) {
  const double eps = 1.0 / static_cast<double>(state.range(0));
  const Trace trace = SharedTrace();
  for (auto _ : state) {
    AddressSpace space;
    CostObliviousReallocator realloc(&space,
                                     CostObliviousReallocator::Options{eps});
    Replay(realloc, trace);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_EpsilonSweep)->Name("cost-oblivious/eps=1_over")->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_SizeSpread(benchmark::State& state) {
  const std::uint64_t max_size = static_cast<std::uint64_t>(state.range(0));
  const Trace trace = MakeChurnTrace({.operations = 20000,
                                      .target_live_volume = 1u << 20,
                                      .min_size = 1,
                                      .max_size = max_size,
                                      .seed = 5});
  for (auto _ : state) {
    AddressSpace space;
    CostObliviousReallocator realloc(&space);
    Replay(realloc, trace);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_SizeSpread)->Name("cost-oblivious/delta")->Arg(64)->Arg(1024)->Arg(16384);

}  // namespace
}  // namespace cosr

// Default the JSON report to BENCH_micro.json so every run leaves a perf
// trajectory artifact; explicit --benchmark_out flags still win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  char default_out[] = "--benchmark_out=BENCH_micro.json";
  char default_fmt[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(default_out);
    args.push_back(default_fmt);
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
