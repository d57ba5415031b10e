// E7 — Lemma 3.6: the deamortized structure bounds the worst-case
// reallocation cost of a size-w update by O((1/eps) w f(1) + f(delta)),
// while the amortized cost matches the amortized variant. We compare the
// worst single-op cost (tail latency) of the amortized and deamortized
// variants under the same workload.

#include <cstdio>

#include "bench_util.h"
#include "cosr/storage/address_space.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/latency_profile.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

/// Replays the trace recording per-op linear-f costs.
void Profile(Reallocator& realloc, AddressSpace& space, const Trace& trace,
             LatencyProfile& profile) {
  space.AddListener(&profile);
  for (const Request& r : trace.requests()) {
    profile.BeginOp();
    if (r.type == Request::Type::kInsert) {
      (void)realloc.Insert(r.id, r.size);
    } else {
      (void)realloc.Delete(r.id);
    }
  }
  profile.BeginOp();
  realloc.Quiesce();
  space.RemoveListener(&profile);
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

  // The same comparison as a latency distribution (linear f): the body is
  // similar; the deamortized tail is flat.
  auto linear = MakeLinearCost();
  LatencyProfile amortized_profile(linear.get());
  {
    AddressSpace space;
    CostObliviousReallocator fresh(&space,
                                   CostObliviousReallocator::Options{eps});
    Profile(fresh, space, trace, amortized_profile);
  }
  LatencyProfile deamortized_profile(linear.get());
  {
    CheckpointManager fresh_manager;
    AddressSpace space(&fresh_manager);
    DeamortizedReallocator fresh(&space, options);
    Profile(fresh, space, trace, deamortized_profile);
  }
  std::printf("\nper-op cost distribution (linear f):\n");
  bench::Table latency({"variant", "p50", "p90", "p99", "p99.9", "max"});
  const std::pair<const LatencyProfile*, const char*> profiles[] = {
      {&amortized_profile, "amortized"},
      {&deamortized_profile, "deamortized"}};
  for (const auto& [profile, label] : profiles) {
    latency.AddRow({label, bench::Fmt(profile->Percentile(0.50), 0),
                    bench::Fmt(profile->Percentile(0.90), 0),
                    bench::Fmt(profile->Percentile(0.99), 0),
                    bench::Fmt(profile->Percentile(0.999), 0),
                    bench::Fmt(profile->max(), 0)});
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
