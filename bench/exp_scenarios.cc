// EXP-SCENARIOS — the standing scenario-diversity battery: every
// reallocator — plus the service-layer sharded cells (cost-oblivious
// behind ShardedReallocator at K ∈ {1, 4, 16}) — replayed over every
// scenario in workload/scenario.h (steady churn, ramp-collapse, bimodal
// sizes, Zipf churn, the database-block replay, and the four adversarial
// traces), recording footprint ratios, moved volume, and throughput via
// RunHarness/CostMeter. Writes one JSON row per cell to
// BENCH_scenarios.json (run from the repo root to refresh the committed
// artifact) and prints a per-scenario table.
//
// Usage: exp_scenarios [--smoke]   (--smoke: ~20x smaller traces for CI)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cosr/storage/address_space.h"
#include "cosr/common/check.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/scenario.h"

namespace cosr {
namespace {

using Clock = std::chrono::steady_clock;

/// One reallocator configuration of the battery. Cells with `sharded` set
/// run behind a ShardedReallocator facade of `spec.shard_count` shards —
/// including K=1, so the wrapper itself is a measured battery citizen, not
/// a special case.
struct Cell {
  ReallocatorSpec spec;
  bool sharded = false;

  std::string RoutingLabel() const {
    return sharded ? RoutingPolicyName(spec.routing) : "-";
  }

  std::string Label() const {
    std::string label = spec.algorithm;
    if (sharded) {
      label += "/K" + std::to_string(spec.shard_count) + "-" + RoutingLabel();
    }
    return label;
  }
};

/// Every cell the battery runs. "pma" is excluded: the classical sparse
/// table holds uniform-slot objects only and rejects these traces.
std::vector<Cell> MakeCells() {
  std::vector<Cell> cells;
  for (const std::string algorithm :
       {"first-fit", "best-fit", "buddy", "log-compact", "size-class",
        "oracle", "cost-oblivious", "checkpointed", "deamortized"}) {
    Cell cell;
    cell.spec.algorithm = algorithm;
    cells.push_back(cell);
  }
  // The service layer: cost-oblivious behind the sharded facade at
  // K ∈ {1, 4, 16} (hash routing; K=1 measures the wrapper itself), plus
  // the size-segregated routing at K=4.
  for (const std::uint32_t shards : {1u, 4u, 16u}) {
    Cell cell;
    cell.spec.algorithm = "cost-oblivious";
    cell.spec.shard_count = shards;
    cell.spec.routing = RoutingPolicy::kHashId;
    cell.sharded = true;
    cells.push_back(cell);
  }
  {
    Cell cell;
    cell.spec.algorithm = "cost-oblivious";
    cell.spec.shard_count = 4;
    cell.spec.routing = RoutingPolicy::kSizeClass;
    cell.sharded = true;
    cells.push_back(cell);
  }
  return cells;
}

struct Row {
  std::string scenario;
  Cell cell;
  RunReport report;
  double wall_seconds = 0;
  double ops_per_sec = 0;
};

Row RunCell(const Scenario& scenario, const Cell& cell,
            const CostBattery& battery) {
  std::unique_ptr<CheckpointManager> manager;
  if (!cell.sharded &&
      AlgorithmNeedsCheckpointManager(cell.spec.algorithm)) {
    // Sharded cells keep the parent unmanaged: each shard scopes its own.
    manager = std::make_unique<CheckpointManager>();
  }
  AddressSpace space(manager.get());
  std::unique_ptr<Reallocator> realloc;
  if (cell.sharded) {
    // Through ShardedReallocator::Make directly so K=1 still measures the
    // facade (the factory unwraps shard_count == 1 to the bare algorithm).
    ShardedReallocator::Options options;
    options.shard_count = cell.spec.shard_count;
    options.routing = cell.spec.routing;
    std::unique_ptr<ShardedReallocator> sharded;
    COSR_CHECK_OK(
        ShardedReallocator::Make(cell.spec, options, &space, &sharded));
    realloc = std::move(sharded);
  } else {
    COSR_CHECK_OK(MakeReallocator(cell.spec, &space, &realloc));
  }

  RunOptions options;
  // Scale the ratio floor with the trace so collapse phases (the regime the
  // fragmentation and ramp scenarios exist for) still produce samples at
  // smoke sizes, while tiny-structure noise stays excluded.
  options.min_volume_for_ratio = std::min<std::uint64_t>(
      1024, std::max<std::uint64_t>(1, scenario.trace.max_live_volume() / 8));

  Row row;
  row.scenario = scenario.name;
  row.cell = cell;
  const auto start = Clock::now();
  row.report = RunTrace(*realloc, space, scenario.trace, battery, options);
  row.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  row.ops_per_sec =
      static_cast<double>(row.report.operations) / row.wall_seconds;
  return row;
}

void WriteJson(const std::vector<Row>& rows, bool smoke) {
  std::FILE* json = std::fopen("BENCH_scenarios.json", "w");
  if (json == nullptr) {
    std::printf("cannot open BENCH_scenarios.json for writing\n");
    return;
  }
  std::fprintf(json, "{\n  \"schema_version\": 3,\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  std::fprintf(json,
               "  \"excluded\": [{\"algorithm\": \"pma\", \"reason\": "
               "\"uniform slot sizes only\"}],\n");
  std::fprintf(json, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const FunctionReport* linear = row.report.function("linear");
    std::fprintf(
        json,
        "    {\"scenario\": \"%s\", \"algorithm\": \"%s\", "
        "\"shards\": %u, \"routing\": \"%s\", "
        "\"operations\": %llu, "
        "\"max_footprint_ratio\": %.4f, \"avg_footprint_ratio\": %.4f, "
        "\"final_footprint_ratio\": %.4f, "
        "\"max_reserved_footprint\": %llu, \"max_volume\": %llu, "
        "\"moves\": %llu, \"bytes_moved\": %llu, \"bytes_placed\": %llu, "
        "\"linear_cost_ratio\": %.4f, \"linear_realloc_ratio\": %.4f, "
        "\"wall_seconds\": %.4f, \"ops_per_sec\": %.0f}%s\n",
        row.scenario.c_str(), row.cell.spec.algorithm.c_str(),
        row.cell.sharded ? row.cell.spec.shard_count : 1,
        row.cell.RoutingLabel().c_str(),
        static_cast<unsigned long long>(row.report.operations),
        row.report.max_footprint_ratio, row.report.avg_footprint_ratio,
        row.report.final_footprint_ratio,
        static_cast<unsigned long long>(row.report.max_reserved_footprint),
        static_cast<unsigned long long>(row.report.max_volume),
        static_cast<unsigned long long>(row.report.moves),
        static_cast<unsigned long long>(row.report.bytes_moved),
        static_cast<unsigned long long>(row.report.bytes_placed),
        linear != nullptr ? linear->cost_ratio : 0.0,
        linear != nullptr ? linear->realloc_ratio : 0.0, row.wall_seconds,
        row.ops_per_sec, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_scenarios.json (%zu rows)\n", rows.size());
}

}  // namespace
}  // namespace cosr

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  cosr::bench::Banner(
      "EXP-SCENARIOS — reallocator x scenario battery",
      "footprint, moved volume and throughput of every reallocator on "
      "every scenario");

  const cosr::ScenarioBatteryOptions options =
      smoke ? cosr::ScenarioBatteryOptions::Smoke()
            : cosr::ScenarioBatteryOptions();
  const std::vector<cosr::Scenario> scenarios =
      cosr::MakeScenarioBattery(options);
  const std::vector<cosr::Cell> cells = cosr::MakeCells();
  const cosr::CostBattery battery = cosr::MakeDefaultBattery();

  std::vector<cosr::Row> rows;
  rows.reserve(scenarios.size() * cells.size());
  for (const cosr::Scenario& scenario : scenarios) {
    std::printf("\n-- %s: %s (%zu requests) --\n", scenario.name.c_str(),
                scenario.description.c_str(), scenario.trace.size());
    cosr::bench::Table table({"cell", "max fp", "avg fp", "final fp",
                              "moves/op", "MiB moved", "kops/s"});
    for (const cosr::Cell& cell : cells) {
      rows.push_back(cosr::RunCell(scenario, cell, battery));
      const cosr::Row& row = rows.back();
      table.AddRow(
          {cell.Label(), cosr::bench::Fmt(row.report.max_footprint_ratio),
           cosr::bench::Fmt(row.report.avg_footprint_ratio),
           cosr::bench::Fmt(row.report.final_footprint_ratio),
           cosr::bench::Fmt(static_cast<double>(row.report.moves) /
                                static_cast<double>(row.report.operations),
                            2),
           cosr::bench::Fmt(static_cast<double>(row.report.bytes_moved) /
                                (1024.0 * 1024.0),
                            1),
           cosr::bench::Fmt(row.ops_per_sec / 1000.0, 0)});
    }
    table.Print();
  }

  cosr::WriteJson(rows, smoke);
  const bool complete = rows.size() == scenarios.size() * cells.size();
  cosr::bench::Verdict(complete,
                       "battery complete: " + std::to_string(rows.size()) +
                           " rows");
  return complete ? 0 : 1;
}
