// Figure 3 — a buffer flush, states (i)-(v): trigger, buffered objects
// evacuated to the overflow segment, payloads compacted (holes dropped),
// payloads unpacked to final positions, buffered objects placed (buffers
// empty). Captured live via the FlushTracer listener.

#include <cstdio>

#include "bench_util.h"
#include "cosr/storage/address_space.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/viz/flush_tracer.h"

namespace cosr {
namespace {

void Run() {
  bench::Banner("Figure 3: a buffer flush, states (i)-(v)",
                "buffers evacuate, payloads compact and unpack, buffered "
                "objects land at their payload ends");
  AddressSpace space;
  CostObliviousReallocator realloc(&space,
                                   CostObliviousReallocator::Options{0.5});
  FlushTracer tracer(&realloc, &space, 96);

  // Recreate the figure's scenario: two size classes with buffered inserts
  // and a delete record, then a flush-triggering insert.
  (void)realloc.Insert(100, 24);  // class 5 payload (via new-class creation)
  (void)realloc.Insert(101, 48);  // class 6
  realloc.set_flush_listener(&tracer);
  (void)realloc.Insert(1, 10);    // "insert A" -> buffered
  (void)realloc.Insert(2, 6);     // "insert B"
  (void)realloc.Delete(2);        // "delete B" -> dummy record
  (void)realloc.Insert(3, 9);     // "insert C"
  // Fill remaining buffer space until the next insert must flush.
  ObjectId id = 200;
  while (realloc.flush_count() == 0) {
    (void)realloc.Insert(id++, 8);  // eventually "insert F" triggers
  }
  for (const std::string& frame : tracer.frames()) {
    std::printf("\n%s\n", frame.c_str());
  }
  bench::Verdict(realloc.flush_count() >= 1 &&
                     realloc.CheckInvariants().ok(),
                 "flushed state satisfies Invariants 2.2-2.4 with empty "
                 "buffers in the flushed classes");
}

}  // namespace
}  // namespace cosr

int main() {
  cosr::Run();
  return cosr::bench::ExitCode();
}
