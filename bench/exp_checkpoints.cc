// E6 — Lemmas 3.1-3.3: under the database durability model, a buffer flush
// completes within O(1/eps) checkpoints, every phase's moves are
// nonoverlapping (enforced by the CheckpointManager — the run would abort
// otherwise), and the in-flush footprint stays (1 + O(eps)) V + O(delta).
//
// Also measures the frozen-region store itself: ExtentSet's sorted-vector
// representation against the original std::map representation (kept below
// as the reference) under a checkpoint-storm access pattern — the
// ROADMAP's "ExtentSet under checkpoint storms" perf rung.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "cosr/common/check.h"
#include "cosr/common/random.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/extent_set.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

/// The pre-refactor ExtentSet: a std::map interval store. Verbatim
/// semantics, kept here as the baseline the sorted-vector representation is
/// measured against.
class LegacyMapExtentSet {
 public:
  void Add(const Extent& e) {
    if (e.empty()) return;
    std::uint64_t new_offset = e.offset;
    std::uint64_t new_end = e.end();
    auto it = intervals_.upper_bound(new_offset);
    if (it != intervals_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= new_offset) it = prev;
    }
    while (it != intervals_.end() && it->first <= new_end) {
      new_offset = std::min(new_offset, it->first);
      new_end = std::max(new_end, it->second);
      it = intervals_.erase(it);
    }
    intervals_.emplace(new_offset, new_end);
  }

  bool Intersects(const Extent& e) const {
    if (e.empty() || intervals_.empty()) return false;
    auto it = intervals_.upper_bound(e.offset);
    if (it != intervals_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > e.offset) return true;
    }
    return it != intervals_.end() && it->first < e.end();
  }

  void Clear() { intervals_.clear(); }
  std::size_t interval_count() const { return intervals_.size(); }

 private:
  std::map<std::uint64_t, std::uint64_t> intervals_;
};

/// One checkpoint-storm round against any interval-set implementation:
/// `adds` frozen regions sprayed over a window (every move/delete freezes
/// its source), 4x as many writability probes (every write validates), one
/// Clear (the checkpoint). Returns a checksum so the work cannot be
/// optimized away.
template <typename Set>
std::uint64_t StormRound(Set& set, Rng& rng, std::uint64_t adds,
                         std::uint64_t window) {
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < adds; ++i) {
    const std::uint64_t offset = rng.UniformU64(window);
    set.Add(Extent{offset, 1 + rng.UniformU64(64)});
    for (int probe = 0; probe < 4; ++probe) {
      const std::uint64_t p = rng.UniformU64(window);
      hits += set.Intersects(Extent{p, 1 + rng.UniformU64(64)}) ? 1 : 0;
    }
  }
  set.Clear();
  return hits;
}

void RunExtentSetStorm() {
  std::printf(
      "\nExtentSet representation under checkpoint storms (adds + 4x "
      "probes per add, Clear per round):\n");
  bench::Table table({"adds/round", "map Mops/s", "sorted-vec Mops/s",
                      "speedup", "checksum"});
  using Clock = std::chrono::steady_clock;
  for (const std::uint64_t adds : {100ull, 1000ull, 10000ull}) {
    const std::uint64_t window = adds * 64;
    const int rounds = static_cast<int>(2000000 / adds);
    const std::uint64_t total_ops = adds * 5 * static_cast<std::uint64_t>(rounds);

    Rng map_rng(99);
    LegacyMapExtentSet map_set;
    const auto map_start = Clock::now();
    std::uint64_t map_sum = 0;
    for (int r = 0; r < rounds; ++r) {
      map_sum += StormRound(map_set, map_rng, adds, window);
    }
    const double map_secs =
        std::chrono::duration<double>(Clock::now() - map_start).count();

    Rng vec_rng(99);
    ExtentSet vec_set;
    const auto vec_start = Clock::now();
    std::uint64_t vec_sum = 0;
    for (int r = 0; r < rounds; ++r) {
      vec_sum += StormRound(vec_set, vec_rng, adds, window);
    }
    const double vec_secs =
        std::chrono::duration<double>(Clock::now() - vec_start).count();

    // Identical rng streams must see identical interval structure.
    COSR_CHECK_EQ(map_sum, vec_sum);
    const double map_mops = static_cast<double>(total_ops) / map_secs / 1e6;
    const double vec_mops = static_cast<double>(total_ops) / vec_secs / 1e6;
    table.AddRow({std::to_string(adds), bench::Fmt(map_mops, 1),
                  bench::Fmt(vec_mops, 1), bench::Fmt(vec_mops / map_mops, 2),
                  std::to_string(vec_sum)});
  }
  table.Print();
}

void Run() {
  bench::Banner(
      "E6: flushing with checkpoints (Lemmas 3.1-3.3)",
      "O(1/eps) checkpoints per flush; nonoverlapping phase moves; in-flush "
      "space (1+O(eps))V + O(delta)");
  CostBattery battery = MakeDefaultBattery();
  Trace trace = MakeChurnTrace({.operations = 30000,
                                .target_live_volume = 2u << 20,
                                .min_size = 1,
                                .max_size = 2048,
                                .seed = 11});
  const std::uint64_t delta = trace.max_object_size();

  bench::Table table({"eps", "flushes", "max ckpt/flush", "bound 6/eps+4",
                      "total ckpts", "max in-flush space/(V+2delta)"});
  bool all_ok = true;
  for (const double eps : {0.5, 0.25, 0.125, 0.0625}) {
    CheckpointManager manager;
    AddressSpace space(&manager);
    CheckpointedReallocator realloc(&space,
                                    CheckpointedReallocator::Options{eps});
    std::uint64_t max_volume = 0;
    RunReport report = RunTrace(realloc, space, trace, battery);
    max_volume = report.max_volume;
    const double ckpt_bound = 6.0 / eps + 4.0;
    const double space_ratio =
        static_cast<double>(realloc.max_temp_footprint()) /
        (static_cast<double>(max_volume) + 2.0 * static_cast<double>(delta));
    all_ok &= static_cast<double>(realloc.max_checkpoints_per_flush()) <=
              ckpt_bound;
    all_ok &= space_ratio <= 1.0 + 8.0 * eps;
    table.AddRow({bench::Fmt(eps, 4), std::to_string(report.flushes),
                  std::to_string(realloc.max_checkpoints_per_flush()),
                  bench::Fmt(ckpt_bound, 1),
                  std::to_string(report.checkpoints),
                  bench::Fmt(space_ratio)});
  }
  table.Print();
  std::printf(
      "(the run completing at all proves Lemma 3.2: any overlapping move or "
      "write into a freed-but-unckeckpointed region aborts the process)\n");
  bench::Verdict(all_ok,
                 "checkpoints per flush grow like 1/eps and stay under the "
                 "bound; in-flush space within (1+O(eps))V + 2delta");
}

}  // namespace
}  // namespace cosr

int main() {
  cosr::Run();
  cosr::RunExtentSetStorm();
  return cosr::bench::ExitCode();
}
