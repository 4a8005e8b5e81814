// Large short-lived scratch arrays mapped straight from the OS.
//
// The setup passes (the tuner's exact projection count, the symbolic
// grouping sort) need a few nnz-long temporaries and free them before
// CP-ALS starts. From the malloc heap, such a block stays resident as a
// hole between live allocations, and frees of large blocks raise malloc's
// mmap threshold so that later temporaries land in the heap as well: the
// process's peak RSS then grows by whatever the allocator keeps. A
// MappedArray above kMapMinBytes is an anonymous mmap instead, unmapped on
// destruction, so its pages go back to the OS at once and it does not touch
// the heap's state. Smaller ones (and every one off POSIX) use new[].
#pragma once

#include <cstddef>
#include <type_traits>

namespace mdcp {

/// Byte size from which a MappedArray is mapped rather than heap-allocated.
inline constexpr std::size_t kMapMinBytes = std::size_t{256} << 10;

namespace detail {
/// `bytes` of fresh pages (or heap when below kMapMinBytes); never null,
/// throws std::bad_alloc.
void* map_scratch(std::size_t bytes);
/// Releases what map_scratch(bytes) returned.
void unmap_scratch(void* p, std::size_t bytes) noexcept;
}  // namespace detail

/// An uninitialized array of `n` trivially copyable T.
template <typename T>
class MappedArray {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_default_constructible_v<T>);

 public:
  explicit MappedArray(std::size_t n)
      : n_(n), data_(static_cast<T*>(detail::map_scratch(n * sizeof(T)))) {}
  ~MappedArray() { detail::unmap_scratch(data_, n_ * sizeof(T)); }
  MappedArray(const MappedArray&) = delete;
  MappedArray& operator=(const MappedArray&) = delete;

  T* data() noexcept { return data_; }
  std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_;
  T* data_;
};

}  // namespace mdcp
