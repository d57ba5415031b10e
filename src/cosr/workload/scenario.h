#ifndef COSR_WORKLOAD_SCENARIO_H_
#define COSR_WORKLOAD_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cosr/workload/trace.h"

namespace cosr {

/// One named workload of the scenario battery: a trace plus the one-line
/// story of what regime it exercises. Produced by MakeScenarioBattery and
/// consumed by bench/exp_scenarios.cc, which replays every scenario against
/// every reallocator cell.
struct Scenario {
  std::string name;
  std::string description;
  Trace trace;
};

/// Size knobs for the battery. The defaults target a few seconds per
/// reallocator cell on a laptop; Smoke() shrinks every scenario to CI-smoke
/// size (sub-second for the whole battery) without changing its shape.
struct ScenarioBatteryOptions {
  // steady-churn / bimodal-churn / zipf-churn
  std::uint64_t churn_operations = 12000;
  std::uint64_t churn_target_volume = 1u << 20;
  std::uint64_t max_object_size = 4096;
  double zipf_churn_s = 1.2;  // zipf-churn size-rank skew
  // ramp-collapse
  std::uint64_t ramp_peak_volume = 1u << 20;
  int ramp_cycles = 2;
  // database-block-replay
  std::uint64_t db_operations = 12000;
  std::uint64_t db_blocks = 256;
  std::uint64_t db_max_block = 8192;
  // multi-tenant-skew (heavy/light object sizes derive from the volume)
  std::uint64_t tenant_operations = 12000;
  std::uint64_t tenant_target_volume = 1u << 20;
  std::uint32_t tenant_heavy = 3;
  std::uint32_t tenant_light = 64;
  // adversaries (Bender et al. PODS 2014 traces, workload/adversary.h)
  std::uint64_t lower_bound_delta = 4096;
  std::uint64_t logging_killer_delta = 512;
  int logging_killer_rounds = 8;
  int cascade_max_order = 11;
  int cascade_rounds = 48;
  std::uint64_t fragmentation_pairs = 2000;
  std::uint64_t seed = 42;

  /// CI-smoke sizes: same scenario shapes, ~20x smaller traces.
  static ScenarioBatteryOptions Smoke();
};

/// The standing scenario battery: steady-state churn, ramp-then-collapse,
/// bimodal sizes, heavy-tail Zipf churn, the TokuDB-style database-block
/// rewrite pattern (round-tripped through the Trace text serialization, so
/// the battery also exercises trace-file I/O), the multi-tenant skew
/// workload (few heavy tenants over many light ones, tenant-correlated
/// sizes and lifetimes), and replays of the four adversarial traces from
/// workload/adversary.h (lower-bound, logging-killer, size-class cascade,
/// fragmentation). Every trace validates (Trace::Validate) and is
/// deterministic given `options.seed`.
std::vector<Scenario> MakeScenarioBattery(
    const ScenarioBatteryOptions& options = ScenarioBatteryOptions());

}  // namespace cosr

#endif  // COSR_WORKLOAD_SCENARIO_H_
