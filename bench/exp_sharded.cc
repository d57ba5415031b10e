// EXP-SHARDED — the service-layer scaling experiment: churn throughput and
// footprint blowup of ShardedReallocator as the shard count K grows, and
// what load-aware routing plus background rebalancing buy back.
//
// For each battery scenario (steady-churn, zipf-churn,
// database-block-replay, multi-tenant-skew) and inner algorithm
// (cost-oblivious, first-fit), runs the bare algorithm plus the facade at
// K ∈ {1, 4, 16} under hash routing, size-class routing (K=4),
// least-loaded routing (K=16), and the hash/least-loaded K=16 cells again
// with the facade's rebalance scan running during the replay. Reports:
//   * ops/s — request throughput through the routing layer (the JSON also
//     carries each facade row's throughput relative to the same-K hash
//     cell: the routing-policy overhead column);
//   * max footprint ratio — peak sum-of-subrange reserved footprint over
//     live volume (the additive-composition view: shards cannot share
//     slack, so this is where sharding pays);
//   * blowup — that ratio normalized to the same cell at K=1;
//   * migrations / migrated bytes — the rebalancer's footprint-repair
//     work.
//
// Writes BENCH_sharded.json, schema v2 (run from the repo root to refresh
// the committed artifact). --smoke shrinks the traces ~20x and turns the
// run into the CI regression guard: the exit code asserts the K=1 facade
// is a zero-cost wrapper (footprint/move/byte counts identical to the bare
// algorithm) — with and without the rebalancer enabled — and that
// least-loaded routing never exceeds static hash's peak footprint on
// zipf-churn at K=16 for the first-fit baseline (the never-move algorithm
// where routing imbalance lands directly in the footprint).
//
// Usage: exp_sharded [--smoke]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cosr/common/check.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/workload/scenario.h"

namespace cosr {
namespace {

using Clock = std::chrono::steady_clock;

/// The rebalancer cells scan after every this many replayed requests.
constexpr std::uint32_t kRebalanceEvery = 32;

struct Config {
  std::string algorithm;
  std::uint32_t shards = 0;  // 0 = bare algorithm, no facade
  RoutingPolicy routing = RoutingPolicy::kHashId;
  bool rebalance = false;

  std::string Label() const {
    if (shards == 0) return algorithm + "/bare";
    return algorithm + "/K" + std::to_string(shards) + "-" +
           RoutingPolicyName(routing) + (rebalance ? "+rb" : "");
  }
};

struct Row {
  std::string scenario;
  Config config;
  RunReport report;
  double ops_per_sec = 0;
  std::uint64_t sum_subrange_footprint = 0;
  std::uint64_t max_shard_end = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migrated_bytes = 0;
};

std::vector<Config> MakeConfigs() {
  std::vector<Config> configs;
  for (const std::string algorithm : {"cost-oblivious", "first-fit"}) {
    configs.push_back({algorithm, 0, RoutingPolicy::kHashId, false});
    for (const std::uint32_t shards : {1u, 4u, 16u}) {
      configs.push_back({algorithm, shards, RoutingPolicy::kHashId, false});
    }
    configs.push_back({algorithm, 4, RoutingPolicy::kSizeClass, false});
    configs.push_back({algorithm, 16, RoutingPolicy::kLeastLoaded, false});
    // The rebalancer cells: K=1 pins the zero-cost-wrapper identity (a
    // one-shard facade is always balanced), K=16 measures the repair.
    configs.push_back({algorithm, 1, RoutingPolicy::kHashId, true});
    configs.push_back({algorithm, 16, RoutingPolicy::kHashId, true});
    configs.push_back({algorithm, 16, RoutingPolicy::kLeastLoaded, true});
  }
  return configs;
}

Row RunConfig(const Scenario& scenario, const Config& config,
              const CostBattery& battery) {
  AddressSpace parent;
  std::unique_ptr<Reallocator> realloc;
  ShardedReallocator* facade = nullptr;
  if (config.shards == 0) {
    ReallocatorSpec spec;
    spec.algorithm = config.algorithm;
    COSR_CHECK_OK(MakeReallocator(spec, &parent, &realloc));
  } else {
    ReallocatorSpec spec;
    spec.algorithm = config.algorithm;
    ShardedReallocator::Options options;
    options.shard_count = config.shards;
    options.routing = config.routing;
    options.rebalance = config.rebalance;
    // Slightly earlier than the library default (1.25): the peak-footprint
    // column records the worst instant, so a late trigger pays a hot
    // shard's whole excursion before the first migration lands. Going much
    // earlier (1.15) over-churns never-move layouts — migrated blocks that
    // find no destination gap extend the cold shard's frontier, raising
    // the very peak the drain was meant to shave.
    options.rebalance_options.hot_footprint_ratio = 1.2;
    options.rebalance_options.check_interval = kRebalanceEvery;
    std::unique_ptr<ShardedReallocator> sharded;
    COSR_CHECK_OK(ShardedReallocator::Make(spec, options, &parent, &sharded));
    facade = sharded.get();
    realloc = std::move(sharded);
  }

  RunOptions options;
  options.min_volume_for_ratio = std::min<std::uint64_t>(
      1024, std::max<std::uint64_t>(1, scenario.trace.max_live_volume() / 8));

  Row row;
  row.scenario = scenario.name;
  row.config = config;
  const auto start = Clock::now();
  row.report = RunTrace(*realloc, parent, scenario.trace, battery, options);
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  row.ops_per_sec = static_cast<double>(row.report.operations) / wall;
  if (facade != nullptr) {
    const ShardStats stats = facade->Stats();
    row.sum_subrange_footprint = stats.sum_subrange_footprint;
    row.max_shard_end = stats.max_shard_end;
    row.migrations = stats.migrations;
    row.migrated_bytes = stats.migrated_bytes;
  } else {
    row.sum_subrange_footprint = parent.footprint();
    row.max_shard_end = parent.footprint();
  }
  return row;
}

const Row* Find(const std::vector<Row>& rows, const std::string& scenario,
                const std::string& algorithm, std::uint32_t shards,
                RoutingPolicy routing, bool rebalance = false) {
  for (const Row& row : rows) {
    if (row.scenario == scenario && row.config.algorithm == algorithm &&
        row.config.shards == shards &&
        (shards == 0 || (row.config.routing == routing &&
                         row.config.rebalance == rebalance))) {
      return &row;
    }
  }
  return nullptr;
}

void WriteJson(const std::vector<Row>& rows, bool smoke) {
  std::FILE* json = std::fopen("BENCH_sharded.json", "w");
  if (json == nullptr) {
    std::printf("cannot open BENCH_sharded.json for writing\n");
    return;
  }
  std::fprintf(json, "{\n  \"schema_version\": 2,\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  std::fprintf(json, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    // Routing-policy throughput overhead: this row's ops/s over the
    // same-scenario/algorithm/K hash cell without rebalancing (1.0 for
    // bare and for the hash baselines themselves).
    double ops_vs_hash = 1.0;
    if (row.config.shards != 0) {
      const Row* hash =
          Find(rows, row.scenario, row.config.algorithm, row.config.shards,
               RoutingPolicy::kHashId, /*rebalance=*/false);
      if (hash != nullptr && hash->ops_per_sec > 0) {
        ops_vs_hash = row.ops_per_sec / hash->ops_per_sec;
      }
    }
    std::fprintf(
        json,
        "    {\"scenario\": \"%s\", \"algorithm\": \"%s\", "
        "\"shards\": %u, \"routing\": \"%s\", \"rebalancer\": %s, "
        "\"facade\": %s, "
        "\"operations\": %llu, \"ops_per_sec\": %.0f, "
        "\"ops_vs_hash\": %.4f, "
        "\"max_footprint_ratio\": %.4f, \"avg_footprint_ratio\": %.4f, "
        "\"moves\": %llu, \"bytes_moved\": %llu, "
        "\"migrations\": %llu, \"migrated_bytes\": %llu, "
        "\"sum_subrange_footprint\": %llu, \"max_shard_end\": %llu}%s\n",
        row.scenario.c_str(), row.config.algorithm.c_str(),
        row.config.shards == 0 ? 1 : row.config.shards,
        row.config.shards == 0 ? "-" : RoutingPolicyName(row.config.routing),
        row.config.rebalance ? "true" : "false",
        row.config.shards == 0 ? "false" : "true",
        static_cast<unsigned long long>(row.report.operations),
        row.ops_per_sec, ops_vs_hash, row.report.max_footprint_ratio,
        row.report.avg_footprint_ratio,
        static_cast<unsigned long long>(row.report.moves),
        static_cast<unsigned long long>(row.report.bytes_moved),
        static_cast<unsigned long long>(row.migrations),
        static_cast<unsigned long long>(row.migrated_bytes),
        static_cast<unsigned long long>(row.sum_subrange_footprint),
        static_cast<unsigned long long>(row.max_shard_end),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_sharded.json (%zu rows)\n", rows.size());
}

}  // namespace
}  // namespace cosr

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  cosr::bench::Banner(
      "EXP-SHARDED — footprint blowup vs shard count, and what load-aware "
      "routing + rebalancing buy back",
      "per-shard sub-problems compose additively: footprint pays K "
      "constant-overhead terms, cross-shard overlap is impossible, K=1 is "
      "a zero-cost wrapper (rebalancer included)");

  cosr::ScenarioBatteryOptions options =
      smoke ? cosr::ScenarioBatteryOptions::Smoke()
            : cosr::ScenarioBatteryOptions();
  // Keep the churn scenarios' size:volume shape scale-invariant (the Smoke
  // preset's volume/32, vs volume/256 in the battery default): a K=16
  // split leaves each shard ~1/16 of the live volume, so per-shard
  // variance — the regime this bench exists to measure — only shows when
  // single objects are comparable to a shard's share. With 4 KiB objects
  // under a 1 MiB volume the law of large numbers hides the routing
  // policies' differences that any smaller (or more skewed) trace exposes.
  options.max_object_size = options.churn_target_volume / 32;
  std::vector<cosr::Scenario> scenarios;
  for (cosr::Scenario& scenario : cosr::MakeScenarioBattery(options)) {
    if (scenario.name == "steady-churn" || scenario.name == "zipf-churn" ||
        scenario.name == "database-block-replay" ||
        scenario.name == "multi-tenant-skew") {
      scenarios.push_back(std::move(scenario));
    }
  }
  COSR_CHECK_EQ(scenarios.size(), 4u);
  const std::vector<cosr::Config> configs = cosr::MakeConfigs();
  const cosr::CostBattery battery = cosr::MakeDefaultBattery();

  std::vector<cosr::Row> rows;
  rows.reserve(scenarios.size() * configs.size());
  for (const cosr::Scenario& scenario : scenarios) {
    std::printf("\n-- %s (%zu requests) --\n", scenario.name.c_str(),
                scenario.trace.size());
    cosr::bench::Table table({"config", "kops/s", "max fp", "fp vs K=1",
                              "moves/op", "migrations", "sum-subrange",
                              "shard-end"});
    for (const cosr::Config& config : configs) {
      rows.push_back(cosr::RunConfig(scenario, config, battery));
      const cosr::Row& row = rows.back();
      const cosr::Row* k1 =
          cosr::Find(rows, scenario.name, config.algorithm, 1,
                     cosr::RoutingPolicy::kHashId);
      const double vs_k1 =
          (config.shards != 0 && k1 != nullptr)
              ? row.report.max_footprint_ratio / k1->report.max_footprint_ratio
              : 1.0;
      table.AddRow(
          {row.config.Label(), cosr::bench::Fmt(row.ops_per_sec / 1000.0, 0),
           cosr::bench::Fmt(row.report.max_footprint_ratio),
           cosr::bench::Fmt(vs_k1, 3),
           cosr::bench::Fmt(static_cast<double>(row.report.moves) /
                                static_cast<double>(row.report.operations),
                            2),
           std::to_string(row.migrations),
           std::to_string(row.sum_subrange_footprint),
           std::to_string(row.max_shard_end)});
    }
    table.Print();
  }

  // The K=16 / K=1 footprint blowup (the number the ROADMAP records), the
  // zero-cost-wrapper identities, and the least-loaded-vs-hash peak
  // footprint guard — all doubling as the CI gates.
  bool ok = rows.size() == scenarios.size() * configs.size();
  std::printf(
      "\nK=16/K=1 max-footprint blowup (hash / least-loaded+rb):\n");
  for (const cosr::Scenario& scenario : scenarios) {
    for (const std::string algorithm : {"cost-oblivious", "first-fit"}) {
      const cosr::Row* bare = cosr::Find(rows, scenario.name, algorithm, 0,
                                         cosr::RoutingPolicy::kHashId);
      const cosr::Row* k1 = cosr::Find(rows, scenario.name, algorithm, 1,
                                       cosr::RoutingPolicy::kHashId);
      const cosr::Row* k1_rb =
          cosr::Find(rows, scenario.name, algorithm, 1,
                     cosr::RoutingPolicy::kHashId, /*rebalance=*/true);
      const cosr::Row* k16_hash = cosr::Find(rows, scenario.name, algorithm,
                                             16, cosr::RoutingPolicy::kHashId);
      const cosr::Row* k16_llrb =
          cosr::Find(rows, scenario.name, algorithm, 16,
                     cosr::RoutingPolicy::kLeastLoaded, /*rebalance=*/true);
      if (bare == nullptr || k1 == nullptr || k1_rb == nullptr ||
          k16_hash == nullptr || k16_llrb == nullptr) {
        ok = false;
        continue;
      }
      std::printf("  %-22s %-15s x%.3f / x%.3f  (ll+rb throughput x%.2f)\n",
                  scenario.name.c_str(), algorithm.c_str(),
                  k16_hash->report.max_footprint_ratio /
                      k1->report.max_footprint_ratio,
                  k16_llrb->report.max_footprint_ratio /
                      k1->report.max_footprint_ratio,
                  k16_llrb->ops_per_sec / k16_hash->ops_per_sec);
      // Zero-cost wrapper: K=1 behind the facade replays the identical
      // operation sequence as the bare algorithm — and the rebalancer
      // must not disturb that (a one-shard facade is always balanced).
      for (const cosr::Row* wrapped : {k1, k1_rb}) {
        ok &= wrapped->report.max_footprint_ratio ==
              bare->report.max_footprint_ratio;
        ok &= wrapped->report.moves == bare->report.moves;
        ok &= wrapped->report.bytes_moved == bare->report.bytes_moved;
        ok &= wrapped->sum_subrange_footprint == bare->sum_subrange_footprint;
      }
      ok &= k1_rb->migrations == 0;
    }
  }
  // Load-aware routing guard: on the heavy-tail churn scenario at K=16,
  // least-loaded must never exceed static hash's peak reserved footprint.
  // Gated on first-fit only: that never-move baseline is where routing
  // imbalance lands directly in the footprint, so the comparison is
  // deterministic and meaningful. Cost-oblivious self-repairs its layout
  // regardless of routing, leaving the two peaks within noise of each
  // other — not a property worth asserting.
  for (const std::string algorithm : {"first-fit"}) {
    const cosr::Row* hash = cosr::Find(rows, "zipf-churn", algorithm, 16,
                                       cosr::RoutingPolicy::kHashId);
    const cosr::Row* ll = cosr::Find(rows, "zipf-churn", algorithm, 16,
                                     cosr::RoutingPolicy::kLeastLoaded);
    if (hash == nullptr || ll == nullptr) {
      ok = false;
      continue;
    }
    const bool bounded = ll->report.max_reserved_footprint <=
                         hash->report.max_reserved_footprint;
    if (!bounded) {
      std::printf(
          "  GUARD FAILED: zipf-churn K16 %s least-loaded peak %llu > "
          "hash peak %llu\n",
          algorithm.c_str(),
          static_cast<unsigned long long>(ll->report.max_reserved_footprint),
          static_cast<unsigned long long>(
              hash->report.max_reserved_footprint));
    }
    ok &= bounded;
  }

  cosr::WriteJson(rows, smoke);
  cosr::bench::Verdict(
      ok,
      "all cells ran; K=1 facade (with and without rebalancer) is "
      "operation-identical to the bare algorithm; least-loaded stays "
      "within hash's peak footprint on zipf-churn K=16");
  return ok ? 0 : 1;
}
