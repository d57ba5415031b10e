// E1 — Theorem 2.1(a) / Lemma 2.5: the cost-oblivious reallocator keeps the
// reserved footprint within (1 + O(eps)) of the live volume at all times,
// for every epsilon, and the ratio tightens as eps shrinks. Also prints the
// footprint/volume timeline (the Lemma 2.5 trajectory) for one run.

#include <cstdio>

#include "bench_util.h"
#include "cosr/storage/address_space.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

void Run() {
  bench::Banner("E1: footprint competitiveness (Theorem 2.1a, Lemma 2.5)",
                "footprint <= (1 + O(eps)) * V after every request");
  CostBattery battery = MakeDefaultBattery();
  Trace trace = MakeChurnTrace({.operations = 40000,
                                .target_live_volume = 4u << 20,
                                .min_size = 1,
                                .max_size = 4096,
                                .seed = 42});

  bench::Table table({"eps", "max footprint/V", "avg footprint/V",
                      "bound 1+4eps", "flushes", "moves/op"});
  bool all_within = true;
  double previous_max = 0;
  bool monotone = true;
  for (const double eps : {0.5, 0.25, 0.125, 0.0625}) {
    AddressSpace space;
    CostObliviousReallocator realloc(&space,
                                     CostObliviousReallocator::Options{eps});
    RunOptions options;
    options.min_volume_for_ratio = 1u << 20;
    RunReport report = RunTrace(realloc, space, trace, battery, options);
    const double bound = 1.0 + 4.0 * eps;
    all_within &= report.max_footprint_ratio <= bound;
    if (previous_max != 0 && report.max_footprint_ratio > previous_max) {
      monotone = false;
    }
    previous_max = report.max_footprint_ratio;
    table.AddRow({bench::Fmt(eps, 4), bench::Fmt(report.max_footprint_ratio),
                  bench::Fmt(report.avg_footprint_ratio), bench::Fmt(bound),
                  std::to_string(report.flushes),
                  bench::Fmt(static_cast<double>(report.moves) /
                                 static_cast<double>(report.operations),
                             2)});
  }
  table.Print();
  bench::Verdict(all_within && monotone,
                 "ratio stays within 1+O(eps) and tightens as eps shrinks");

  std::printf("\nfootprint/volume timeline (eps = 0.25, every 4000 ops):\n");
  AddressSpace space;
  CostObliviousReallocator realloc(&space,
                                   CostObliviousReallocator::Options{0.25});
  RunOptions options;
  options.timeline_every = 4000;
  RunReport report = RunTrace(realloc, space, trace, battery, options);
  bench::Table timeline({"operation", "volume", "reserved footprint", "ratio"});
  for (const TimelinePoint& p : report.timeline) {
    timeline.AddRow({std::to_string(p.operation), std::to_string(p.volume),
                     std::to_string(p.reserved_footprint),
                     bench::Fmt(static_cast<double>(p.reserved_footprint) /
                                static_cast<double>(p.volume))});
  }
  timeline.Print();
}

}  // namespace
}  // namespace cosr

int main() {
  cosr::Run();
  return cosr::bench::ExitCode();
}
