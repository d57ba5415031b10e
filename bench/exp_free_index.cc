// EXP-FREE-INDEX — fit-query and churn throughput of the production
// BinnedFreeIndex against the exact map-scan free list it replaced (kept as
// the test-side reference tests/reference/map_free_list.h) across
// gap-population sizes. The map scan walks the ordered gap map (O(#gaps)
// per query: first-fit churn leaves mostly small remnant gaps, so
// mid/large requests scan far); the binned index answers from the
// two-level bin bitmap in O(1). The populations here reproduce that
// remnant-skew: many small gaps, queries drawn wider than most gaps.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cosr/alloc/binned_free_index.h"
#include "cosr/common/random.h"
#include "reference/map_free_list.h"

namespace cosr {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMaxGapSize = 1024;
constexpr std::uint64_t kMaxQuerySize = 1536;  // ~1/3 of queries miss all bins

/// The first-fit query of each free list.
std::optional<std::uint64_t> Fit(const MapFreeList& list, std::uint64_t size) {
  return list.FindFirstFit(size);
}
std::optional<std::uint64_t> Fit(const BinnedFreeIndex& list,
                                 std::uint64_t size) {
  return list.FindFit(size);
}

/// Builds a free list with exactly `gaps` isolated gaps of random size in
/// [1, kMaxGapSize], separated by 16-cell live blocks.
template <typename List>
List BuildPopulation(std::size_t gaps, std::uint64_t seed) {
  Rng rng(seed);
  List list;
  std::uint64_t offset = 0;
  std::vector<Extent> holes;
  holes.reserve(gaps);
  for (std::size_t i = 0; i < gaps; ++i) {
    const std::uint64_t hole = rng.UniformRange(1, kMaxGapSize);
    list.Reserve(offset, hole);  // placeholder, released below
    holes.push_back(Extent{offset, hole});
    offset += hole;
    list.Reserve(offset, 16);  // live separator keeps holes isolated
    offset += 16;
  }
  list.Reserve(offset, 16);  // keep the frontier beyond the last hole
  for (const Extent& hole : holes) list.Release(hole);
  return list;
}

/// Query throughput: first-fit queries over random sizes, no mutation.
template <typename List>
double MeasureQueries(const List& list, std::uint64_t seed,
                      double min_seconds, std::size_t min_ops) {
  Rng rng(seed);
  std::size_t ops = 0;
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint64_t size = rng.UniformRange(1, kMaxQuerySize);
      sink += Fit(list, size).value_or(list.frontier());
    }
    ops += 64;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds || ops < min_ops);
  // Keep the optimizer honest.
  if (sink == 0xdeadbeef) std::printf("\n");
  return static_cast<double>(ops) / elapsed;
}

/// Steady-state churn throughput: each op is one insert (find+reserve) or
/// one delete (release), keeping the population near its starting size.
template <typename List>
double MeasureChurn(List list, std::uint64_t seed, double min_seconds,
                    std::size_t min_ops) {
  Rng rng(seed);
  std::vector<Extent> live;
  live.reserve(4096);
  std::size_t ops = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    for (std::size_t i = 0; i < 64; ++i) {
      if (live.empty() || rng.Bernoulli(0.5)) {
        const std::uint64_t size = rng.UniformRange(1, kMaxQuerySize);
        const std::uint64_t offset = Fit(list, size).value_or(list.frontier());
        list.Reserve(offset, size);
        live.push_back(Extent{offset, size});
      } else {
        const std::size_t k =
            static_cast<std::size_t>(rng.UniformU64(live.size()));
        list.Release(live[k]);
        live[k] = live.back();
        live.pop_back();
      }
    }
    ops += 64;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds || ops < min_ops);
  return static_cast<double>(ops) / elapsed;
}

}  // namespace
}  // namespace cosr

int main() {
  using cosr::BinnedFreeIndex;
  using cosr::MapFreeList;
  cosr::bench::Banner(
      "EXP-FREE-INDEX — binned bitmap index vs ordered-map scan",
      "fit queries drop from O(#gaps) to O(1); >=5x items/sec at 1e4 gaps");

  const std::size_t populations[] = {100, 1000, 10000, 100000, 1000000};
  cosr::bench::Table table({"gaps", "map q/s", "binned q/s", "q speedup",
                            "map churn/s", "binned churn/s", "churn speedup"});

  double speedup_at_1e4 = 0.0;
  std::FILE* json = std::fopen("BENCH_free_index.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"schema_version\": 1,\n  \"rows\": [\n");
  }

  for (std::size_t i = 0; i < sizeof(populations) / sizeof(populations[0]);
       ++i) {
    const std::size_t gaps = populations[i];
    // Larger populations get fewer iterations: one map query may walk the
    // entire gap map.
    const double min_seconds = 0.15;
    const std::size_t min_ops = gaps >= 100000 ? 64 : 4096;

    const auto map_list =
        cosr::BuildPopulation<MapFreeList>(gaps, 42 + gaps);
    const auto bin_list =
        cosr::BuildPopulation<BinnedFreeIndex>(gaps, 42 + gaps);

    const double map_q = cosr::MeasureQueries(map_list, 7, min_seconds, min_ops);
    const double bin_q = cosr::MeasureQueries(bin_list, 7, min_seconds, min_ops);
    const double map_c = cosr::MeasureChurn(
        cosr::BuildPopulation<MapFreeList>(gaps, 42 + gaps), 9, min_seconds,
        min_ops);
    const double bin_c = cosr::MeasureChurn(
        cosr::BuildPopulation<BinnedFreeIndex>(gaps, 42 + gaps), 9,
        min_seconds, min_ops);

    const double q_speedup = bin_q / map_q;
    if (gaps == 10000) speedup_at_1e4 = q_speedup;
    table.AddRow({std::to_string(gaps), cosr::bench::Fmt(map_q, 0),
                  cosr::bench::Fmt(bin_q, 0), cosr::bench::Fmt(q_speedup, 1),
                  cosr::bench::Fmt(map_c, 0), cosr::bench::Fmt(bin_c, 0),
                  cosr::bench::Fmt(bin_c / map_c, 1)});
    if (json != nullptr) {
      std::fprintf(json,
                   "    {\"gaps\": %zu, \"map_queries_per_sec\": %.0f, "
                   "\"binned_queries_per_sec\": %.0f, "
                   "\"map_churn_per_sec\": %.0f, "
                   "\"binned_churn_per_sec\": %.0f}%s\n",
                   gaps, map_q, bin_q, map_c, bin_c,
                   i + 1 < sizeof(populations) / sizeof(populations[0]) ? ","
                                                                        : "");
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_free_index.json\n");
  }

  table.Print();
  cosr::bench::Verdict(speedup_at_1e4 >= 5.0,
                       "first-fit query speedup at 1e4 gaps: " +
                           cosr::bench::Fmt(speedup_at_1e4, 1) +
                           "x (target >= 5x)");
  return speedup_at_1e4 >= 5.0 ? 0 : 1;
}
