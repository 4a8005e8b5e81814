#include "util/mapped.hpp"

#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define MDCP_HAVE_MMAP 1
#else
#define MDCP_HAVE_MMAP 0
#endif

namespace mdcp::detail {

void* map_scratch(std::size_t bytes) {
#if MDCP_HAVE_MMAP
  if (bytes >= kMapMinBytes) {
#if defined(MAP_POPULATE)
    // Every page is written right away: fault them in with the mapping.
    constexpr int kPopulate = MAP_POPULATE;
#else
    constexpr int kPopulate = 0;
#endif
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | kPopulate, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
  }
#endif
  return ::operator new(bytes == 0 ? 1 : bytes);
}

void unmap_scratch(void* p, std::size_t bytes) noexcept {
#if MDCP_HAVE_MMAP
  if (bytes >= kMapMinBytes) {
    ::munmap(p, bytes);
    return;
  }
#endif
  ::operator delete(p);
}

}  // namespace mdcp::detail
