#ifndef COSR_COMMON_HUGE_PAGES_H_
#define COSR_COMMON_HUGE_PAGES_H_

#include <cstddef>
#include <new>
#include <vector>

namespace cosr {

/// Big storage for the metadata arrays of the storage layer: the
/// AddressSpace slot table, the OffsetIndex page pool, the U64HashMap slot
/// arrays and BinnedFreeIndex's node pool. At ~4M objects these hold about
/// 200 MB, and point operations on them miss the TLB as often as the cache
/// when they sit on 4 KiB pages.
///
/// The huge-page rule: which memory gets huge-page advice depends only on
/// how big the owning structure already is. Memory is advised only once its
/// structure already holds kHugeAdviceMinBytes, so a structure never puts a
/// huge page under its first 4 MiB, and a small one (a shard's space, a
/// test's index) pays nothing in resident memory. A ChunkList advises its
/// chunks from the third on; a flat array (HugePageAllocator) is advised
/// when one allocation reaches kHugeAdviceMinBytes, which it only does by
/// replacing a full array of half that size. There is no setting and no
/// shared pool: each structure owns its memory. The advice is
/// madvise(MADV_HUGEPAGE) on this process's own memory; the kernel may
/// ignore it (THP disabled, no free huge pages), which only leaves the
/// memory on base pages.

/// One transparent huge page (x86-64 and arm64 with 4 KiB base pages).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// How much a structure must already hold before more of its memory gets
/// huge-page advice.
inline constexpr std::size_t kHugeAdviceMinBytes = 2 * kHugePageBytes;

/// Allocates `bytes` aligned to kHugePageBytes through the aligned global
/// operator new (so allocation counters see it) and gives its whole huge
/// pages madvise(MADV_HUGEPAGE); a refusal is ignored. The memory is
/// uninitialized: untouched parts stay unbacked.
void* AllocateAdvised(std::size_t bytes);

/// Frees memory from AllocateAdvised.
void FreeAdvised(void* p);


/// Standard allocator for big flat arrays (std::vector): allocations of
/// kHugeAdviceMinBytes or more are advised, smaller ones are plain
/// operator new.
template <typename T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    return static_cast<T*>(bytes >= kHugeAdviceMinBytes
                               ? AllocateAdvised(bytes)
                               : ::operator new(bytes));
  }
  void deallocate(T* p, std::size_t n) {
    if (n * sizeof(T) >= kHugeAdviceMinBytes) {
      FreeAdvised(p);
    } else {
      ::operator delete(p);
    }
  }

  friend bool operator==(const HugePageAllocator&, const HugePageAllocator&) {
    return true;
  }
  friend bool operator!=(const HugePageAllocator&, const HugePageAllocator&) {
    return false;
  }
};

/// The owned, never-moving chunks of a growing pool: each holds
/// kPerChunk uninitialized T in kHugePageBytes. Only the parts a caller
/// writes are ever backed. Chunks the pool adds once it already holds
/// kHugeAdviceMinBytes are huge-page aligned and advised; the first ones
/// are plain allocations.
template <typename T>
class ChunkList {
 public:
  static constexpr std::size_t kPerChunk = kHugePageBytes / sizeof(T);

  ChunkList() = default;
  ChunkList(const ChunkList&) = delete;
  ChunkList& operator=(const ChunkList&) = delete;
  ~ChunkList() { Clear(); }

  std::size_t size() const { return chunks_.size(); }
  T* operator[](std::size_t i) const { return chunks_[i]; }
  T* back() const { return chunks_.back(); }

  /// Appends a chunk; back() returns it.
  void Add() {
    void* chunk = Advised(chunks_.size()) ? AllocateAdvised(kHugePageBytes)
                                          : ::operator new(kHugePageBytes);
    chunks_.push_back(static_cast<T*>(chunk));
  }

  /// Frees every chunk.
  void Clear() {
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
      if (Advised(i)) {
        FreeAdvised(chunks_[i]);
      } else {
        ::operator delete(chunks_[i]);
      }
    }
    chunks_.clear();
  }

 private:
  static bool Advised(std::size_t index) {
    return index * kHugePageBytes >= kHugeAdviceMinBytes;
  }

  std::vector<T*> chunks_;
};

}  // namespace cosr

#endif  // COSR_COMMON_HUGE_PAGES_H_
