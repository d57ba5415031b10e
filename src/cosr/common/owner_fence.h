#ifndef COSR_COMMON_OWNER_FENCE_H_
#define COSR_COMMON_OWNER_FENCE_H_

#include <atomic>
#include <string>
#include <thread>

#include "cosr/common/check.h"

namespace cosr {

/// Debug-only owning-thread fence for thread-compatible classes: the first
/// thread that calls Assert becomes the owner, and any later call from a
/// different thread CHECK-fails with a message naming the class. Embed one
/// per instance and call Assert at the top of every mutating entry point.
///
/// The enforced property is thread-*affinity*: ownership stays with one
/// thread until it is handed off explicitly. That is stricter than
/// thread-compatibility, which would also allow any fully-synchronized
/// cross-thread use, so the fence catches real races without false
/// positives. An object that legally moves between threads (a shard of
/// the concurrent facade, which any worker may claim) moves ownership with
/// HandOff: the claiming thread calls it right after taking the claim that
/// serializes it against the previous owner. A mutation from any thread
/// that did not take over since (the previous holder, or a thread that
/// never claimed) still CHECK-fails.
///
/// The member exists in all build modes so the object layout never differs
/// between Debug and Release translation units (mixing those must not
/// corrupt embedding classes); only the checking logic compiles out under
/// NDEBUG.
class OwnerThreadFence {
 public:
  void Assert(const char* what) const {
#ifndef NDEBUG
    std::thread::id expected{};
    const std::thread::id self = std::this_thread::get_id();
    if (!owner_.compare_exchange_strong(expected, self,
                                        std::memory_order_relaxed)) {
      COSR_CHECK_MSG(expected == self,
                     std::string(what) +
                         " is thread-compatible: mutations must stay on the "
                         "owning thread");
    }
#else
    (void)what;
#endif
  }

  /// Makes the calling thread the owner. The caller must hold whatever
  /// serializes the object across threads (the claim that orders it after
  /// the previous owner's last mutation); the fence only checks that later
  /// mutations come from this thread.
  void HandOff() {
#ifndef NDEBUG
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }

 private:
  mutable std::atomic<std::thread::id> owner_{};
};

}  // namespace cosr

#endif  // COSR_COMMON_OWNER_FENCE_H_
