#ifndef COSR_ALLOC_BEST_FIT_ALLOCATOR_H_
#define COSR_ALLOC_BEST_FIT_ALLOCATOR_H_

#include "cosr/alloc/first_fit_allocator.h"

namespace cosr {

/// Classical Best Fit memory allocation: each object is placed in the
/// smallest adequate gap and never moves.
///
/// On the binned free index this is the same placement as first fit: the
/// fit query already serves the smallest size bin guaranteed to hold the
/// request (within 12.5% of the true best fit), so the class only renames
/// FirstFitAllocator. The exact tightest-gap rule's peak footprint is at
/// most ~4% lower on the scenario battery (see alloc/README.md).
class BestFitAllocator : public FirstFitAllocator {
 public:
  using FirstFitAllocator::FirstFitAllocator;
  const char* name() const override { return "best-fit"; }
};

}  // namespace cosr

#endif  // COSR_ALLOC_BEST_FIT_ALLOCATOR_H_
