#include "cosr/common/huge_pages.h"

#include <sys/mman.h>

namespace cosr {

void* AllocateAdvised(std::size_t bytes) {
  void* p = ::operator new(bytes, std::align_val_t{kHugePageBytes});
#ifdef MADV_HUGEPAGE
  // Only whole huge pages can be backed by one; a failed call (THP off, an
  // old kernel) leaves the memory on base pages and is not an error.
  const std::size_t whole = bytes & ~(kHugePageBytes - 1);
  if (whole > 0) (void)madvise(p, whole, MADV_HUGEPAGE);
#endif
  return p;
}

void FreeAdvised(void* p) {
  ::operator delete(p, std::align_val_t{kHugePageBytes});
}

}  // namespace cosr
