#ifndef OIJ_COMMON_SPSC_QUEUE_H_
#define OIJ_COMMON_SPSC_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>

#include "common/cache_line.h"
#include "common/clock.h"

namespace oij {

/// Outcome of a bounded/stoppable push attempt.
enum class PushResult : uint8_t {
  kOk = 0,
  kTimedOut,  ///< ring stayed full until the deadline
  kStopped,   ///< the stop token was raised while waiting
};

/// Bounded single-producer single-consumer ring buffer.
///
/// This is the transport between the router (source) thread and each joiner
/// thread, and it is used in place on both sides:
///
/// - The producer *stages* each value straight into the free slot after
///   its unpublished run (TryStage) and makes the whole run visible with
///   one release store of the shared tail (Publish). A value is written
///   into the ring once and never copied again.
/// - The consumer *peeks* at published slots and reads them where they
///   lie (Peek/PeekAt), then hands them back with one release store of
///   the shared head (Release). Until then the producer cannot reuse
///   them, so a reference returned by PeekAt stays valid.
///
/// TryPush/TryPop are the one-value forms. Head and tail live on separate
/// cache lines, and each side keeps its private cursor and its cached
/// copy of the opposite index on a line of its own (the producer's is the
/// staging lane), so neither side's per-value writes touch a line the
/// other reads (the classic Vyukov/folly SPSC layout). Slots start on a
/// cache line and the slot array is padded to whole lines.
///
/// Blocking variants back off with std::this_thread::yield() rather than
/// spinning hot: benchmark machines are frequently oversubscribed (more
/// joiners than cores), and a hot spin would starve the very thread being
/// waited on.
template <typename T>
class SpscQueue {
 public:
  /// `capacity` is rounded up to a power of two, minimum 2.
  explicit SpscQueue(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    buffer_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // --- producer ---

  /// Writes `value` into the free slot after the staged run. Returns false
  /// when the ring is full (staged slots count as used). The consumer
  /// sees the value only after the next Publish.
  bool TryStage(const T& value) {
    const size_t tail = producer_.tail;
    if (tail - producer_.head_cache > mask_) {
      producer_.head_cache = head_.load(std::memory_order_acquire);
      if (tail - producer_.head_cache > mask_) return false;
    }
    buffer_[tail & mask_] = value;
    producer_.tail = tail + 1;
    return true;
  }

  /// Publishes every staged slot with one release store of the tail.
  void Publish() {
    if (producer_.published == producer_.tail) return;
    producer_.published = producer_.tail;
    tail_.store(producer_.tail, std::memory_order_release);
  }

  /// Slots staged but not yet published (producer only).
  size_t staged() const { return producer_.tail - producer_.published; }

  /// Stages `value`, waiting for a free slot as PushBounded does. A full
  /// ring first publishes the staged run: the consumer cannot free slots
  /// it cannot see.
  PushResult StageBounded(const T& value, int64_t deadline_ns = -1,
                          const std::atomic<bool>* stop = nullptr) {
    if (TryStage(value)) return PushResult::kOk;
    Publish();
    while (true) {
      if (stop != nullptr && stop->load(std::memory_order_acquire)) {
        return PushResult::kStopped;
      }
      if (deadline_ns >= 0 && MonotonicNowNs() >= deadline_ns) {
        return PushResult::kTimedOut;
      }
      std::this_thread::yield();
      if (TryStage(value)) return PushResult::kOk;
    }
  }

  /// Non-blocking push: stages `value` and publishes it together with
  /// any earlier staged run. Returns false when the ring is full.
  bool TryPush(const T& value) {
    if (!TryStage(value)) return false;
    Publish();
    return true;
  }

  /// Blocking push; yields while full. Prefer PushBounded in any path
  /// where the consumer may have died (see ParallelEngineBase::Finish).
  void Push(const T& value) { PushBounded(value); }

  /// Push with an optional absolute deadline and an optional stop token.
  ///
  /// `deadline_ns` (MonotonicNowNs timeline): < 0 waits indefinitely,
  /// 0 is a single attempt, > 0 retries until that instant. `stop`, when
  /// non-null, is polled while waiting and aborts the push as soon as it
  /// reads true — this is how a dead consumer stops deadlocking the
  /// router during shutdown.
  PushResult PushBounded(const T& value, int64_t deadline_ns = -1,
                         const std::atomic<bool>* stop = nullptr) {
    const PushResult r = StageBounded(value, deadline_ns, stop);
    if (r == PushResult::kOk) Publish();
    return r;
  }

  // --- consumer ---

  /// How many published slots the consumer may read in place, at most
  /// `max_n`; 0 only when the ring is empty. The shared tail is re-read
  /// only once the slots last seen are used up, so this may count fewer
  /// than are published. The slots stay the consumer's until Release.
  size_t Peek(size_t max_n) {
    size_t avail = consumer_.tail_cache - consumer_.head;
    if (avail == 0) {
      consumer_.tail_cache = tail_.load(std::memory_order_acquire);
      avail = consumer_.tail_cache - consumer_.head;
    }
    return std::min(avail, max_n);
  }

  /// The `i`-th unreleased slot; `i` must be below what Peek returned.
  const T& PeekAt(size_t i) const {
    return buffer_[(consumer_.head + i) & mask_];
  }

  /// Hands the first `n` peeked slots back to the producer with one
  /// release store of the head.
  void Release(size_t n) {
    consumer_.head += n;
    head_.store(consumer_.head, std::memory_order_release);
  }

  /// Non-blocking pop. Returns false when the ring is empty.
  bool TryPop(T* out) {
    if (Peek(1) == 0) return false;
    *out = PeekAt(0);
    Release(1);
    return true;
  }

  /// Approximate published depth (exact if called from producer or
  /// consumer). Safe to call from a third thread (the watchdog): `head_`
  /// is loaded first, so a release landing between the two loads can only
  /// make the result stale, never make `head > tail` and underflow the
  /// subtraction; the result is additionally clamped to capacity against
  /// publishes landing in the same window.
  size_t SizeApprox() const {
    const size_t head = head_.load(std::memory_order_acquire);
    const size_t tail = tail_.load(std::memory_order_acquire);
    const size_t depth = tail >= head ? tail - head : 0;
    return std::min(depth, mask_ + 1);
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  /// Producer-only cursors: the next slot to stage, the end of the last
  /// published run, and the last head seen.
  struct ProducerLane {
    size_t tail = 0;
    size_t published = 0;
    size_t head_cache = 0;
  };
  /// Consumer-only cursors: the first unreleased slot and the last tail
  /// seen.
  struct ConsumerLane {
    size_t head = 0;
    size_t tail_cache = 0;
  };

  CacheLineVector<T> buffer_;
  size_t mask_ = 0;

  alignas(kCacheLineBytes) std::atomic<size_t> head_{0};
  alignas(kCacheLineBytes) ProducerLane producer_;
  alignas(kCacheLineBytes) std::atomic<size_t> tail_{0};
  alignas(kCacheLineBytes) ConsumerLane consumer_;
};

}  // namespace oij

#endif  // OIJ_COMMON_SPSC_QUEUE_H_
