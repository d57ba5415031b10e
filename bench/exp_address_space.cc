// EXP-ADDRESS-SPACE — op-level storage microbench: AddressSpace ("flat":
// slot table + paged offset index, batch-level ApplyMoves validation)
// against the std::map + unordered_map model it replaced ("map": the
// test-side reference tests/reference/reference_space.h, which validates
// every move of a batch on its own), at 1e3..1e6 live objects, for the
// three primitive ops and for the move-storm workload shaped like the
// paper's flush procedures (crunch right, unpack left — the Figure 3
// traffic), per-move vs batched ApplyMoves. The map model doubles as the
// ordered-tree alternative for the neighbor index, so this bench is also
// the "pick the ordered structure with a micro bench" evidence.
//
// Writes BENCH_address_space.json (run from the repo root to refresh the
// committed artifact). Exit code asserts the flat space's batched
// move-storm beats the map model's per-move storm by the threshold:
// >= 2.0x in full mode (the PR acceptance bar), >= 1.0x in --smoke (the
// CI regression guard, generous to tolerate shared-runner noise).
//
// Usage: exp_address_space [--smoke]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_util.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"
#include "reference/reference_space.h"

namespace cosr {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kLength = 8;   // object size
constexpr std::uint64_t kStride = 32;  // slot pitch (>= 2 * kLength)

template <typename SpaceType>
const char* EngineName() {
  return std::is_same_v<SpaceType, AddressSpace> ? "flat" : "map";
}

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Row {
  std::string section;
  std::string engine;
  std::string mode;       // "-", "per-move", "batched"
  bool checkpointed = false;
  std::uint64_t n = 0;    // live objects
  std::uint64_t ops = 0;
  double seconds = 0;
  double ops_per_sec() const { return static_cast<double>(ops) / seconds; }
};

/// Section A: place / move / remove throughput at `n` live objects.
/// Layout: object i at [i*kStride, i*kStride + kLength); moves ping-pong
/// each object between the two halves of its slot (the sequential sweep
/// pattern of a flush).
template <typename SpaceType>
std::vector<Row> RunPrimitiveOps(std::uint64_t n, std::uint64_t move_ops) {
  const char* engine = EngineName<SpaceType>();
  std::vector<Row> rows;
  SpaceType space;

  auto start = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    space.Place(i + 1, Extent{i * kStride, kLength});
  }
  rows.push_back({"place", engine, "-", false, n, n,
                  Seconds(start)});

  std::uint64_t done = 0;
  bool upper = false;
  start = Clock::now();
  while (done < move_ops) {
    const std::uint64_t shift = upper ? 0 : kLength;
    for (std::uint64_t i = 0; i < n && done < move_ops; ++i, ++done) {
      space.Move(i + 1, Extent{i * kStride + shift, kLength});
    }
    upper = !upper;
  }
  rows.push_back({"move", engine, "per-move", false, n, done,
                  Seconds(start)});

  start = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    space.Remove(i + 1);
  }
  rows.push_back({"remove", engine, "-", false, n, n,
                  Seconds(start)});
  return rows;
}

/// Section B: the move storm. All n objects sit packed at [i*kLength); one
/// round crunches them right into [base + i*kLength) (descending order,
/// like CrunchRight / flush step 2) and unpacks them back (ascending, like
/// flush step 3). `batched` stages each pass as one ApplyMoves plan;
/// `checkpointed` runs the durability model with a checkpoint after every
/// pass (passes are nonoverlapping, so one window per pass suffices).
template <typename SpaceType>
Row RunMoveStorm(bool batched, bool checkpointed, std::uint64_t n,
                 std::uint64_t target_moves) {
  const char* engine = EngineName<SpaceType>();
  std::unique_ptr<CheckpointManager> manager;
  if (checkpointed) manager = std::make_unique<CheckpointManager>();
  SpaceType space(manager.get());
  for (std::uint64_t i = 0; i < n; ++i) {
    space.Place(i + 1, Extent{i * kLength, kLength});
  }
  const std::uint64_t base = n * kLength;  // disjoint upper arena

  std::vector<MovePlan> plan;
  plan.reserve(n);
  std::uint64_t moves = 0;
  const auto pass = [&](bool to_upper) {
    const std::uint64_t offset = to_upper ? base : 0;
    if (batched) {
      plan.clear();
      if (to_upper) {
        for (std::uint64_t i = n; i-- > 0;) {
          plan.push_back(MovePlan{i + 1, {offset + i * kLength, kLength}});
        }
      } else {
        for (std::uint64_t i = 0; i < n; ++i) {
          plan.push_back(MovePlan{i + 1, {offset + i * kLength, kLength}});
        }
      }
      space.ApplyMoves(plan);
    } else if (to_upper) {
      for (std::uint64_t i = n; i-- > 0;) {
        space.Move(i + 1, Extent{offset + i * kLength, kLength});
      }
    } else {
      for (std::uint64_t i = 0; i < n; ++i) {
        space.Move(i + 1, Extent{offset + i * kLength, kLength});
      }
    }
    if (checkpointed) space.Checkpoint();
    moves += n;
  };

  const auto start = Clock::now();
  bool to_upper = true;
  while (moves < target_moves) {
    pass(to_upper);
    to_upper = !to_upper;
  }
  Row row{"move-storm", engine,
          batched ? "batched" : "per-move", checkpointed, n, moves,
          Seconds(start)};
  return row;
}

void WriteJson(const std::vector<Row>& rows, double storm_speedup,
               bool smoke) {
  std::FILE* json = std::fopen("BENCH_address_space.json", "w");
  if (json == nullptr) {
    std::printf("cannot open BENCH_address_space.json for writing\n");
    return;
  }
  std::fprintf(json, "{\n  \"schema_version\": 1,\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  std::fprintf(json, "  \"storm_speedup_flat_batched_vs_map_per_move\": %.2f,\n",
               storm_speedup);
  std::fprintf(json, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(json,
                 "    {\"section\": \"%s\", \"engine\": \"%s\", "
                 "\"mode\": \"%s\", \"checkpointed\": %s, \"n\": %llu, "
                 "\"ops\": %llu, \"seconds\": %.4f, \"ops_per_sec\": %.0f}%s\n",
                 row.section.c_str(), row.engine.c_str(), row.mode.c_str(),
                 row.checkpointed ? "true" : "false",
                 static_cast<unsigned long long>(row.n),
                 static_cast<unsigned long long>(row.ops), row.seconds,
                 row.ops_per_sec(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_address_space.json (%zu rows)\n", rows.size());
}

}  // namespace
}  // namespace cosr

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  cosr::bench::Banner(
      "EXP-ADDRESS-SPACE — flat AddressSpace vs map model, per-move vs batched",
      "flush move storms should run at memory speed, not rb-tree speed");

  const std::vector<std::uint64_t> sizes =
      smoke ? std::vector<std::uint64_t>{1000, 20000}
            : std::vector<std::uint64_t>{1000, 10000, 100000, 1000000};
  const std::uint64_t move_ops = smoke ? 200000 : 2000000;

  std::vector<cosr::Row> rows;
  {
    cosr::bench::Table table(
        {"n", "engine", "place Mops/s", "move Mops/s", "remove Mops/s"});
    for (const std::uint64_t n : sizes) {
      for (const std::vector<cosr::Row>& r :
           {cosr::RunPrimitiveOps<cosr::ReferenceSpace>(n, move_ops),
            cosr::RunPrimitiveOps<cosr::AddressSpace>(n, move_ops)}) {
        table.AddRow({std::to_string(n), r[0].engine,
                      cosr::bench::Fmt(r[0].ops_per_sec() / 1e6, 2),
                      cosr::bench::Fmt(r[1].ops_per_sec() / 1e6, 2),
                      cosr::bench::Fmt(r[2].ops_per_sec() / 1e6, 2)});
        rows.insert(rows.end(), r.begin(), r.end());
      }
    }
    std::printf("\n-- primitive ops (object %llu B, slot pitch %llu B) --\n",
                static_cast<unsigned long long>(cosr::kLength),
                static_cast<unsigned long long>(cosr::kStride));
    table.Print();
  }

  const std::uint64_t storm_n = smoke ? 5000 : 100000;
  double map_per_move = 0;
  double flat_batched = 0;
  {
    cosr::bench::Table table(
        {"engine", "mode", "ckpt", "moves", "Mmoves/s"});
    for (const bool checkpointed : {false, true}) {
      for (const bool flat : {false, true}) {
        for (const bool batched : {false, true}) {
          const cosr::Row row =
              flat ? cosr::RunMoveStorm<cosr::AddressSpace>(
                         batched, checkpointed, storm_n, move_ops)
                   : cosr::RunMoveStorm<cosr::ReferenceSpace>(
                         batched, checkpointed, storm_n, move_ops);
          table.AddRow({row.engine, batched ? "batched" : "per-move",
                        checkpointed ? "yes" : "no", std::to_string(row.ops),
                        cosr::bench::Fmt(row.ops_per_sec() / 1e6, 2)});
          if (!checkpointed && !flat && !batched) {
            map_per_move = row.ops_per_sec();
          }
          if (!checkpointed && flat && batched) {
            flat_batched = row.ops_per_sec();
          }
          rows.push_back(row);
        }
      }
    }
    std::printf("\n-- move storm (flush-shaped crunch/unpack, n=%llu) --\n",
                static_cast<unsigned long long>(storm_n));
    table.Print();
  }

  const double speedup = flat_batched / map_per_move;
  cosr::WriteJson(rows, speedup, smoke);

  const double threshold = smoke ? 1.0 : 2.0;
  const bool ok = speedup >= threshold;
  cosr::bench::Verdict(
      ok, "flat+batched move storm at " + cosr::bench::Fmt(speedup, 2) +
              "x the map model's per-move storm (threshold " +
              cosr::bench::Fmt(threshold, 1) + "x)");
  return ok ? 0 : 1;
}
