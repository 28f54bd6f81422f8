#ifndef OIJ_COMMON_COUNTER_H_
#define OIJ_COMMON_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace oij {

/// Single-writer counter update: only one thread ever mutates `c`, other
/// threads just read it, so a relaxed load+store suffices — no locked RMW
/// on the hot path, and readers still see a value that was written.
template <typename T>
inline void SingleWriterAdd(std::atomic<T>& c,
                            std::type_identity_t<T> delta) {
  c.store(c.load(std::memory_order_relaxed) + delta,
          std::memory_order_relaxed);
}
template <typename T>
inline void SingleWriterSub(std::atomic<T>& c,
                            std::type_identity_t<T> delta) {
  c.store(c.load(std::memory_order_relaxed) - delta,
          std::memory_order_relaxed);
}

/// Cache-line-padded atomic counter. Each thread bumps its own slot;
/// samplers read all slots — padding keeps the writes from
/// false-sharing.
struct alignas(64) PaddedCounter {
  std::atomic<uint64_t> value{0};
};

}  // namespace oij

#endif  // OIJ_COMMON_COUNTER_H_
