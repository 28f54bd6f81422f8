#ifndef OIJ_COMMON_CACHE_LINE_H_
#define OIJ_COMMON_CACHE_LINE_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace oij {

inline constexpr size_t kCacheLineBytes = 64;

/// Allocator for data one thread writes at a high rate: every block
/// starts on a cache-line boundary and is rounded up to whole lines, so
/// no other allocation shares its first or last line. Without it, the
/// driver's per-tuple writes land wherever malloc places the block, and
/// a joiner reading its neighbour pays a miss per write.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  /// Bytes a block of `n` elements occupies: whole lines.
  static size_t PaddedBytes(size_t n) {
    if (n > (SIZE_MAX - kCacheLineBytes) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return (n * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes *
           kCacheLineBytes;
  }

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(
        PaddedBytes(n), std::align_val_t{kCacheLineBytes}));
  }

  void deallocate(T* p, size_t n) noexcept {
    ::operator delete(p, PaddedBytes(n), std::align_val_t{kCacheLineBytes});
  }

  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

/// A vector whose storage owns its cache lines (see CacheLineAllocator).
template <typename T>
using CacheLineVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace oij

#endif  // OIJ_COMMON_CACHE_LINE_H_
