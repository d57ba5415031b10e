// E2 — Theorem 2.1(b) / Lemma 2.6: one cost-oblivious execution is
// O((1/eps) log(1/eps))-competitive on reallocation cost for EVERY
// monotone subadditive cost function simultaneously. The same move stream
// is priced under the whole battery; the normalized column divides the
// measured ratio by (1/eps)*log2(1/eps) and should stay a small constant.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "cosr/storage/address_space.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

double Envelope(double eps) {
  return (1.0 / eps) * std::max(1.0, std::log2(1.0 / eps));
}

void Run() {
  bench::Banner(
      "E2: cost-oblivious reallocation cost (Theorem 2.1b, Lemma 2.6)",
      "realloc cost <= O((1/eps) log(1/eps)) x allocation cost, for all "
      "subadditive f, with one oblivious execution");
  CostBattery battery = MakeDefaultBattery();
  Trace trace = MakeChurnTrace({.operations = 40000,
                                .target_live_volume = 4u << 20,
                                .min_size = 1,
                                .max_size = 4096,
                                .seed = 7});

  bool all_constant = true;
  for (const double eps : {0.5, 0.25, 0.125}) {
    AddressSpace space;
    CostObliviousReallocator realloc(&space,
                                     CostObliviousReallocator::Options{eps});
    RunReport report = RunTrace(realloc, space, trace, battery);
    std::printf("\neps = %.4f   (envelope (1/eps)log2(1/eps) = %.1f)\n", eps,
                Envelope(eps));
    bench::Table table({"cost function f", "alloc cost", "realloc cost",
                        "realloc/alloc (b)", "b / envelope"});
    for (const FunctionReport& fn : report.functions) {
      const double normalized = fn.realloc_ratio / Envelope(eps);
      all_constant &= normalized <= 4.0;
      table.AddRow({fn.name, bench::Fmt(fn.allocation_cost, 0),
                    bench::Fmt(fn.total_write_cost - fn.allocation_cost, 0),
                    bench::Fmt(fn.realloc_ratio),
                    bench::Fmt(normalized)});
    }
    table.Print();
  }
  bench::Verdict(all_constant,
                 "normalized ratio is a small constant for every f in Fsa "
                 "across the eps sweep — the algorithm never saw f");
}

}  // namespace
}  // namespace cosr

int main() {
  cosr::Run();
  return cosr::bench::ExitCode();
}
