// E5 — Theorem 2.7: cost-oblivious defragmentation sorts arbitrary objects
// in (1+eps)V + delta working space with O((1/eps) log(1/eps)) amortized
// moves per object, vs the naive defragmenter's 2 moves per object in a
// full 2V of space.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "cosr/common/math_util.h"
#include "cosr/common/random.h"
#include "cosr/core/defragmenter.h"
#include "cosr/storage/address_space.h"

namespace cosr {
namespace {

std::vector<ObjectId> MakeFragmentedLayout(AddressSpace* space,
                                           std::size_t count,
                                           std::uint64_t max_size, double eps,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> sizes(count);
  std::uint64_t volume = 0;
  for (auto& s : sizes) {
    s = rng.UniformRange(1, max_size);
    volume += s;
  }
  const std::uint64_t arena = FloorScale(eps, volume) + volume;
  std::uint64_t slack_left = arena - volume;
  std::uint64_t cursor = 0;
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t gap =
        slack_left > 0 ? rng.UniformU64(slack_left + 1) / count : 0;
    slack_left -= gap;
    cursor += gap;
    space->Place(static_cast<ObjectId>(i + 1), Extent{cursor, sizes[i]});
    cursor += sizes[i];
    ids.push_back(static_cast<ObjectId>(i + 1));
  }
  return ids;
}

void Run() {
  bench::Banner("E5: cost-oblivious defragmentation (Theorem 2.7)",
                "sorts with space <= (1+eps)V + delta and O((1/eps)log(1/eps)) "
                "amortized moves per object");
  auto less = [](ObjectId a, ObjectId b) { return a < b; };
  bench::Table table({"n", "eps", "algorithm", "moves/object",
                      "peak space / V", "space bound / V", "within bound"});
  bool all_ok = true;
  for (const std::size_t n : {256u, 1024u, 4096u}) {
    for (const double eps : {0.5, 0.25, 0.125}) {
      Defragmenter::Stats stats;
      {
        AddressSpace space;
        auto ids = MakeFragmentedLayout(&space, n, 128, eps, n);
        Defragmenter::Options options;
        options.epsilon = eps;
        const Status status = Defragmenter::Sort(&space, ids, less, options,
                                                 &stats);
        if (!status.ok()) {
          std::printf("SORT FAILED: %s\n", status.ToString().c_str());
          all_ok = false;
          continue;
        }
      }
      const bool within = stats.max_footprint <= stats.arena_limit;
      all_ok &= within;
      const double v = static_cast<double>(stats.volume);
      table.AddRow({std::to_string(n), bench::Fmt(eps, 3), "cost-oblivious",
                    bench::Fmt(static_cast<double>(stats.total_moves) /
                                   static_cast<double>(n),
                               2),
                    bench::Fmt(static_cast<double>(stats.max_footprint) / v),
                    bench::Fmt(static_cast<double>(stats.arena_limit) / v),
                    within ? "yes" : "NO"});
    }
    // Naive comparison at this n.
    Defragmenter::Stats naive;
    AddressSpace space;
    auto ids = MakeFragmentedLayout(&space, n, 128, 0.25, n);
    if (NaiveDefragSort(&space, ids, less, &naive).ok()) {
      table.AddRow({std::to_string(n), "-", "naive (2V space)",
                    bench::Fmt(static_cast<double>(naive.total_moves) /
                                   static_cast<double>(n),
                               2),
                    bench::Fmt(static_cast<double>(naive.max_footprint) /
                               static_cast<double>(naive.volume)),
                    "2.000", "yes"});
    }
  }
  table.Print();
  bench::Verdict(all_ok,
                 "space never exceeds (1+eps)V + delta; moves/object grows "
                 "like (1/eps)log(1/eps) as eps shrinks, vs 2 moves at 2V "
                 "for the naive method");
}

}  // namespace
}  // namespace cosr

int main() {
  cosr::Run();
  return cosr::bench::ExitCode();
}
