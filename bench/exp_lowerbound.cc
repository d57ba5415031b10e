// E8 — Lemma 3.7: for any reallocator maintaining a (1+1/2)V footprint,
// the sequence {insert delta; insert delta units; delete delta} forces a
// reallocation cost of Omega(f(delta)) on some update — even knowing f and
// the future. We run the adversary against every implementation and report
// the worst single-op cost normalized by f(delta).

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "cosr/storage/address_space.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/realloc/compacting_oracle.h"
#include "cosr/realloc/logging_compacting_reallocator.h"
#include "cosr/realloc/size_class_reallocator.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/adversary.h"

namespace cosr {
namespace {

struct Row {
  std::string name;
  double worst_linear = 0;  // max single-op cost under f(w)=w
};

template <typename Realloc, typename... Args>
Row RunOne(const std::string& name, const Trace& trace,
           const CostBattery& battery, bool with_manager) {
  std::unique_ptr<CheckpointManager> manager;
  if (with_manager) manager = std::make_unique<CheckpointManager>();
  AddressSpace space(manager.get());
  Realloc realloc(&space);
  RunReport report = RunTrace(realloc, space, trace, battery);
  return Row{name, report.function("linear")->max_op_cost};
}

void Run() {
  bench::Banner(
      "E8: the worst-case lower bound (Lemma 3.7)",
      "every reallocator with a constant-factor footprint pays "
      "Omega(f(delta)) on some update of the adversarial sequence");
  CostBattery battery = MakeDefaultBattery();
  bench::Table table(
      {"delta", "algorithm", "worst op cost (linear f)", "/ f(delta)"});
  bool all_pay = true;
  for (const std::uint64_t delta : {512u, 2048u, 8192u}) {
    Trace trace = MakeLowerBoundTrace(delta);
    std::vector<Row> rows;
    rows.push_back(RunOne<CostObliviousReallocator>("cost-oblivious", trace,
                                                    battery, false));
    rows.push_back(RunOne<CheckpointedReallocator>("checkpointed", trace,
                                                   battery, true));
    rows.push_back(RunOne<DeamortizedReallocator>("deamortized", trace,
                                                  battery, true));
    rows.push_back(RunOne<LoggingCompactingReallocator>("log-compact", trace,
                                                        battery, false));
    rows.push_back(
        RunOne<SizeClassReallocator>("size-class", trace, battery, false));
    rows.push_back(
        RunOne<CompactingOracle>("oracle (footprint=V)", trace, battery,
                                 false));
    for (const Row& row : rows) {
      const double normalized = row.worst_linear / static_cast<double>(delta);
      all_pay &= normalized >= 0.2;
      table.AddRow({std::to_string(delta), row.name,
                    bench::Fmt(row.worst_linear, 0),
                    bench::Fmt(normalized, 2)});
    }
  }
  table.Print();
  bench::Verdict(all_pay,
                 "every implementation pays at least a constant fraction of "
                 "f(delta) on some single update, at every delta — the bound "
                 "is universal, not an artifact of one algorithm");
}

}  // namespace
}  // namespace cosr

int main() {
  cosr::Run();
  return cosr::bench::ExitCode();
}
