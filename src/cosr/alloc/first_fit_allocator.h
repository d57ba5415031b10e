#ifndef COSR_ALLOC_FIRST_FIT_ALLOCATOR_H_
#define COSR_ALLOC_FIRST_FIT_ALLOCATOR_H_

#include <cstdint>

#include "cosr/alloc/binned_free_index.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/storage/space.h"

namespace cosr {

/// Classical First Fit memory allocation: each object is placed at the
/// lowest address where it fits, and never moves. This is the baseline
/// regime of the paper's introduction, whose footprint competitive ratio has
/// a logarithmic lower bound [Luby et al. 1996].
///
/// Free space lives in a BinnedFreeIndex, so the fit query is O(1) and
/// bin-granular: the gap picked is the oldest of the smallest size bin
/// guaranteed to fit, not always the lowest-addressed candidate. This
/// reproduces the exact rule's E4 table and never exceeds its peak
/// footprint on the scenario battery (see alloc/README.md).
class FirstFitAllocator : public Reallocator {
 public:
  explicit FirstFitAllocator(Space* space) : space_(space) {}
  FirstFitAllocator(const FirstFitAllocator&) = delete;
  FirstFitAllocator& operator=(const FirstFitAllocator&) = delete;

  Status Insert(ObjectId id, std::uint64_t size) override;
  Status Delete(ObjectId id) override;
  std::uint64_t reserved_footprint() const override {
    return free_index_.frontier();
  }
  std::uint64_t volume() const override { return space_->live_volume(); }
  const char* name() const override { return "first-fit"; }

 private:
  Space* space_;
  BinnedFreeIndex free_index_;
};

}  // namespace cosr

#endif  // COSR_ALLOC_FIRST_FIT_ALLOCATOR_H_
