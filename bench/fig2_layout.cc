// Figure 2 — the layout of the data structure: per size class a payload
// segment (light gray in the paper; objects here) followed by a buffer
// segment (dark gray; 'b' on the ruler), with eps' = 1/2. Rendered from a
// live CostObliviousReallocator.

#include <cstdio>

#include "bench_util.h"
#include "cosr/storage/address_space.h"
#include "cosr/common/random.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/viz/layout_renderer.h"

namespace cosr {
namespace {

void Run() {
  bench::Banner("Figure 2: payload and buffer segments (eps' = 1/2)",
                "region i = payload segment (class-i objects only) followed "
                "by a buffer segment (classes <= i)");
  AddressSpace space;
  CostObliviousReallocator realloc(&space,
                                   CostObliviousReallocator::Options{0.5});
  Rng rng(2014);
  ObjectId id = 1;
  for (int i = 0; i < 60; ++i) {
    (void)realloc.Insert(id++, rng.UniformRange(1, 64));
  }
  std::printf("\nobjects (letters) over the address space; ruler: p = payload "
              "segment, b = buffer segment, | = region start\n\n%s\n",
              RenderLayout(realloc, space, 96).c_str());
  std::printf("\nper-region accounting:\n");
  bench::Table table({"size class", "sizes", "payload cap", "buffer cap",
                      "buffer used", "payload objects"});
  for (int i = 1; i <= realloc.max_size_class(); ++i) {
    const Region& r = realloc.region(i);
    if (r.payload_capacity + r.buffer_capacity == 0) continue;
    table.AddRow({std::to_string(i),
                  "[" + std::to_string(1ull << (i - 1)) + "," +
                      std::to_string(1ull << i) + ")",
                  std::to_string(r.payload_capacity),
                  std::to_string(r.buffer_capacity),
                  std::to_string(r.buffer_used),
                  std::to_string(r.payload_count())});
  }
  table.Print();
  bench::Verdict(realloc.CheckInvariants().ok(),
                 "Invariants 2.2-2.4 hold on the rendered state");
}

}  // namespace
}  // namespace cosr

int main() {
  cosr::Run();
  return 0;
}
