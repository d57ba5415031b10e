#include "cosr/alloc/first_fit_allocator.h"

namespace cosr {

Status FirstFitAllocator::Insert(ObjectId id, std::uint64_t size) {
  if (size == 0) return Status::InvalidArgument("size must be positive");
  // Query first (pure read), then TryPlace: the success path performs a
  // single hash probe and never materializes a std::string.
  const std::uint64_t offset =
      free_index_.FindFit(size).value_or(free_index_.frontier());
  if (!space_->TryPlace(id, Extent{offset, size})) {
    return Status::AlreadyExists("object " + std::to_string(id));
  }
  free_index_.Reserve(offset, size);
  return Status::Ok();
}

Status FirstFitAllocator::Delete(ObjectId id) {
  Extent extent;
  if (!space_->TryRemove(id, &extent)) {
    return Status::NotFound("object " + std::to_string(id));
  }
  free_index_.Release(extent);
  return Status::Ok();
}

}  // namespace cosr
