// E7 — Lemma 3.6: the deamortized structure bounds the worst-case
// reallocation cost of a size-w update by O((1/eps) w f(1) + f(delta)),
// while the amortized cost matches the amortized variant. We compare the
// worst single-op cost (tail latency) of the amortized and deamortized
// variants under the same workload.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "cosr/storage/address_space.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/cost_meter.h"
#include "cosr/metrics/latency_histogram.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

/// Replays the trace recording each request's linear-f cost: the bytes it
/// writes (placements plus moves).
LatencyHistogram Profile(Reallocator& realloc, AddressSpace& space,
                         const Trace& trace, const CostBattery& battery) {
  CostMeter meter(&battery);
  LatencyHistogram costs;
  space.AddListener(&meter);
  std::uint64_t written = 0;
  for (const Request& r : trace.requests()) {
    if (r.type == Request::Type::kInsert) {
      (void)realloc.Insert(r.id, r.size);
    } else {
      (void)realloc.Delete(r.id);
    }
    const std::uint64_t now = meter.bytes_placed() + meter.bytes_moved();
    costs.Record(now - written);
    written = now;
  }
  space.RemoveListener(&meter);
  return costs;
}

void Run() {
  bench::Banner(
      "E7: deamortization (Lemma 3.6)",
      "worst-case per-update reallocated volume <= (4/eps) w + delta, so "
      "worst-case cost O((1/eps) w f(1) + f(delta)); amortized unchanged");
  CostBattery battery = MakeDefaultBattery();
  const double eps = 0.25;
  Trace trace = MakeChurnTrace({.operations = 30000,
                                .target_live_volume = 2u << 20,
                                .min_size = 1,
                                .max_size = 2048,
                                .seed = 13});
  const std::uint64_t max_w = trace.max_object_size();

  // Amortized variant.
  AddressSpace amortized_space;
  CostObliviousReallocator amortized(&amortized_space,
                                     CostObliviousReallocator::Options{eps});
  RunReport amortized_report =
      RunTrace(amortized, amortized_space, trace, battery);

  // Deamortized variant.
  CheckpointManager manager;
  AddressSpace deamortized_space(&manager);
  DeamortizedReallocator::Options options;
  options.epsilon = eps;
  options.work_factor = 4.0;
  DeamortizedReallocator deamortized(&deamortized_space, options);
  RunReport deamortized_report =
      RunTrace(deamortized, deamortized_space, trace, battery);

  bench::Table table({"cost f", "amortized: worst op", "deamortized: worst op",
                      "improvement", "amortized ratio", "deamortized ratio"});
  bool improved = true;
  for (std::size_t i = 0; i < battery.size(); ++i) {
    const FunctionReport& a = amortized_report.functions[i];
    const FunctionReport& d = deamortized_report.functions[i];
    if (a.name == "linear" || a.name == "constant") {
      improved &= d.max_op_cost < a.max_op_cost;
    }
    table.AddRow({a.name, bench::Fmt(a.max_op_cost, 0),
                  bench::Fmt(d.max_op_cost, 0),
                  bench::Fmt(a.max_op_cost / std::max(d.max_op_cost, 1.0), 1) +
                      "x",
                  bench::Fmt(a.realloc_ratio, 2),
                  bench::Fmt(d.realloc_ratio, 2)});
  }
  table.Print();

  // The same comparison as a distribution (linear f, so bytes written per
  // request): the body is similar; the deamortized tail is flat.
  // Percentiles are bucket upper bounds (at most 1/32 high); max is exact.
  LatencyHistogram amortized_costs;
  {
    AddressSpace space;
    CostObliviousReallocator fresh(&space,
                                   CostObliviousReallocator::Options{eps});
    amortized_costs = Profile(fresh, space, trace, battery);
  }
  LatencyHistogram deamortized_costs;
  {
    CheckpointManager fresh_manager;
    AddressSpace space(&fresh_manager);
    DeamortizedReallocator fresh(&space, options);
    deamortized_costs = Profile(fresh, space, trace, battery);
  }
  std::printf("\nper-op cost distribution (linear f):\n");
  bench::Table latency({"variant", "p50", "p90", "p99", "p99.9", "max"});
  const std::pair<const LatencyHistogram*, const char*> profiles[] = {
      {&amortized_costs, "amortized"}, {&deamortized_costs, "deamortized"}};
  for (const auto& [costs, label] : profiles) {
    latency.AddRow({label, std::to_string(costs->Percentile(0.50)),
                    std::to_string(costs->Percentile(0.90)),
                    std::to_string(costs->Percentile(0.99)),
                    std::to_string(costs->Percentile(0.999)),
                    std::to_string(costs->max())});
  }
  latency.Print();

  const double volume_bound =
      (options.work_factor / eps) * static_cast<double>(max_w) +
      static_cast<double>(deamortized.delta()) + 1;
  std::printf("\nworst per-op moved volume: %llu (bound (4/eps)w + delta = %.0f)\n",
              static_cast<unsigned long long>(
                  deamortized.max_op_moved_volume()),
              volume_bound);
  std::printf("max checkpoints charged to one update: %llu\n",
              static_cast<unsigned long long>(
                  deamortized.max_checkpoints_per_op()));
  const bool volume_ok =
      static_cast<double>(deamortized.max_op_moved_volume()) <= volume_bound;
  bench::Verdict(improved && volume_ok,
                 "deamortized worst-op cost is far below the amortized "
                 "variant's and within the Lemma 3.6 volume bound, at "
                 "similar amortized cost");
}

}  // namespace
}  // namespace cosr

int main() {
  cosr::Run();
  return cosr::bench::ExitCode();
}
