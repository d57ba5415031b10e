// E9 — the subadditivity requirement is real. The Lemma 2.6 charging
// argument lets small buffered allocations pay for moving larger objects
// because subadditive f makes large objects the cheapest per unit to move.
// A superadditive f(w) = w^2 inverts that: one size-∆ object repeatedly
// repositioned by flushes that unit-object churn triggers costs ~f(∆) per
// flush against only ~f(1) of new allocation. The same execution priced
// under Fsa members stays O((1/eps) log(1/eps)); under w^2 the ratio grows
// without bound as ∆ grows. Nothing about the run changes — only the
// pricing — which is exactly why the theorem restricts f to Fsa.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "cosr/storage/address_space.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/workload/trace.h"

namespace cosr {
namespace {

/// One size-delta object plus steady unit-object churn: the units fill the
/// buffers, every flush repacks the suffix, and the big object keeps
/// moving as the small classes' segment sizes fluctuate.
Trace MakeBigAndUnitsTrace(std::uint64_t delta, std::uint64_t operations) {
  Trace trace;
  ObjectId next = 1;
  trace.AddInsert(next++, delta);
  std::vector<ObjectId> live;
  const std::size_t steady = 512;
  std::uint64_t toggle = 0x12345678;
  for (std::uint64_t op = 0; op < operations; ++op) {
    toggle = toggle * 6364136223846793005ULL + 1442695040888963407ULL;
    if (live.size() < steady || (toggle >> 33) % 2 == 0) {
      trace.AddInsert(next, 1);
      live.push_back(next++);
    } else {
      const std::size_t k = (toggle >> 17) % live.size();
      trace.AddDelete(live[k]);
      live[k] = live.back();
      live.pop_back();
    }
  }
  return trace;
}

void Run() {
  bench::Banner(
      "E9: subadditivity is required (Section 1, class Fsa)",
      "the O((1/eps)log(1/eps)) guarantee holds for subadditive f only; a "
      "superadditive f(w)=w^2 breaks the charging argument");
  CostBattery battery = MakeBatteryWithQuadratic();
  bench::Table table({"delta", "flushes", "linear ratio", "sqrt ratio",
                      "quadratic ratio (NOT in Fsa)"});
  double first_quadratic = 0;
  double last_quadratic = 0;
  double worst_fsa = 0;
  for (const std::uint64_t delta : {1024u, 4096u, 16384u}) {
    // ops ~ delta^1.5: flushes (one per ~eps*delta of churn) outgrow the
    // big object's own f(delta) allocation, so the superadditive ratio
    // rises ~sqrt(delta) while every Fsa ratio stays ~2/eps.
    const auto operations = static_cast<std::uint64_t>(
        static_cast<double>(delta) * std::sqrt(static_cast<double>(delta)));
    Trace trace = MakeBigAndUnitsTrace(delta, operations);
    AddressSpace space;
    CostObliviousReallocator realloc(&space,
                                     CostObliviousReallocator::Options{0.25});
    RunReport report = RunTrace(realloc, space, trace, battery);
    const double linear = report.function("linear")->realloc_ratio;
    const double sqrt_ratio = report.function("sqrt")->realloc_ratio;
    const double quadratic = report.function("quadratic")->realloc_ratio;
    if (first_quadratic == 0) first_quadratic = quadratic;
    last_quadratic = quadratic;
    worst_fsa = std::max({worst_fsa, linear, sqrt_ratio});
    table.AddRow({std::to_string(delta), std::to_string(report.flushes),
                  bench::Fmt(linear, 2), bench::Fmt(sqrt_ratio, 2),
                  bench::Fmt(quadratic, 2)});
  }
  table.Print();
  const bool shape = last_quadratic > 2.0 * first_quadratic &&
                     last_quadratic > 4.0 * worst_fsa;
  bench::Verdict(shape,
                 "the quadratic ratio keeps growing with delta while every "
                 "Fsa member stays bounded — cost obliviousness is exactly "
                 "as strong as the paper claims, no stronger");
}

}  // namespace
}  // namespace cosr

int main() {
  cosr::Run();
  return cosr::bench::ExitCode();
}
