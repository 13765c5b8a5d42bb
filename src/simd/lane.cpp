#include "v6class/simd/lane.h"

#include <cstdlib>
#include <new>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace v6::simd::detail {

// The sanitizers do not follow mremap (AddressSanitizer sees no bounds
// in a raw mapping; ThreadSanitizer keeps a moved range's history and
// reports its next user as racing), so sanitized builds take the
// realloc path, whose blocks they track.
#if defined(MREMAP_MAYMOVE) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)

void* grow_mapping(void* p, std::size_t old_bytes, std::size_t& new_bytes) {
    static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    new_bytes = (new_bytes + page - 1) / page * page;
    void* out = p ? ::mremap(p, old_bytes, new_bytes, MREMAP_MAYMOVE)
                  : ::mmap(nullptr, new_bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (out == MAP_FAILED) throw std::bad_alloc();
    return out;
}

void free_mapping(void* p, std::size_t bytes) noexcept {
    if (p) ::munmap(p, bytes);
}

#else  // realloc, which may copy

void* grow_mapping(void* p, std::size_t, std::size_t& new_bytes) {
    void* out = std::realloc(p, new_bytes);
    if (!out) throw std::bad_alloc();
    return out;
}

void free_mapping(void* p, std::size_t) noexcept { std::free(p); }

#endif

}  // namespace v6::simd::detail
