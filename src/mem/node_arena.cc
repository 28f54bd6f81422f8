#include "mem/node_arena.h"

#include <cassert>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "common/counter.h"
#include "topo/topology.h"

namespace oij {

namespace {
// Under AddressSanitizer, memory the arena holds but has not handed out
// is poisoned — freed blocks, the virgin tail of a slab, and the data of
// slabs in the empty pool — so a read through a stale pointer into the
// index (an evicted node, a finger left behind) faults instead of
// silently reading a recycled block. Slab headers stay addressable: they
// are the allocator's own metadata.
#if defined(__SANITIZE_ADDRESS__)
inline void Poison(void* p, size_t bytes) {
  ASAN_POISON_MEMORY_REGION(p, bytes);
}
inline void Unpoison(void* p, size_t bytes) {
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
}
#else
inline void Poison(void*, size_t) {}
inline void Unpoison(void*, size_t) {}
#endif
}  // namespace

NodeArena::~NodeArena() {
  for (Slab* slab : all_slabs_) {
    Unpoison(slab, kSlabBytes);
    ::operator delete(slab, std::align_val_t{kSlabBytes});
  }
}

void* NodeArena::Allocate(size_t bytes) {
  assert(bytes > 0);
  // Only the owner mutates the counters; metrics threads just read them,
  // so a relaxed load+store suffices — no locked RMW on the hot path.
  SingleWriterAdd(allocations_, 1);
  SingleWriterAdd(live_nodes_, 1);
  if (bytes > kMaxClassBytes) {
    SingleWriterAdd(oversize_allocs_, 1);
    return ::operator new(bytes);
  }
  const size_t cls = ClassIndex(bytes);
  const uint32_t class_bytes = static_cast<uint32_t>((cls + 1) * kGranule);
  Slab* slab = usable_[cls];
  if (slab == nullptr) slab = TakeSlab(class_bytes);

  void* block;
  if (slab->free_head != nullptr) {
    block = slab->free_head;
    Unpoison(block, class_bytes);
    slab->free_head = *static_cast<void**>(block);
  } else {
    block = reinterpret_cast<char*>(slab) + kDataOffset + slab->bump;
    Unpoison(block, class_bytes);
    slab->bump += class_bytes;
  }
  ++slab->live;
  if (slab->free_head == nullptr &&
      kDataOffset + slab->bump + class_bytes > kSlabBytes) {
    UnlinkUsable(cls, slab);  // full: neither free blocks nor bump room
  }
  return block;
}

void NodeArena::Deallocate(void* ptr, size_t bytes) {
  SingleWriterSub(live_nodes_, 1);
  if (bytes > kMaxClassBytes) {
    ::operator delete(ptr);
    return;
  }
  Slab* slab = SlabOf(ptr);
  const size_t cls = ClassIndex(slab->class_bytes);
  *static_cast<void**>(ptr) = slab->free_head;
  slab->free_head = ptr;
  Poison(ptr, slab->class_bytes);
  --slab->live;
  if (!slab->in_usable) LinkUsable(cls, slab);
  if (slab->live == 0) {
    // Fully dead: drop the whole free list at once and make the slab
    // available to every size class.
    UnlinkUsable(cls, slab);
    slab->free_head = nullptr;
    slab->bump = 0;
    slab->class_bytes = 0;
    slab->prev = nullptr;
    slab->next = empty_;
    empty_ = slab;
    PoisonData(slab);
    SingleWriterAdd(slab_recycles_, 1);
  }
}

void* NodeArena::AcquireSlab() {
  SingleWriterAdd(slab_loans_, 1);
  Slab* slab = empty_;
  if (slab != nullptr) {
    empty_ = slab->next;
  } else {
    slab = new (NewRawSlab()) Slab();
    all_slabs_.push_back(slab);
    SingleWriterAdd(reserved_bytes_, kSlabBytes);
  }
  // The borrower may overwrite the whole slab, header included;
  // ReleaseSlab() rebuilds it before the slab re-enters the pool.
  Unpoison(slab, kSlabBytes);
  return slab;
}

void NodeArena::ReleaseSlab(void* slab) {
  Slab* s = new (slab) Slab();
  s->next = empty_;
  empty_ = s;
  PoisonData(s);
}

void NodeArena::PoisonData(Slab* slab) {
  Poison(reinterpret_cast<char*>(slab) + kDataOffset,
         kSlabBytes - kDataOffset);
}

NodeArena::Slab* NodeArena::TakeSlab(uint32_t class_bytes) {
  Slab* slab = empty_;
  if (slab != nullptr) {
    empty_ = slab->next;
    slab->next = nullptr;
  } else {
    slab = new (NewRawSlab()) Slab();
    all_slabs_.push_back(slab);
    SingleWriterAdd(reserved_bytes_, kSlabBytes);
  }
  slab->class_bytes = class_bytes;
  LinkUsable(ClassIndex(class_bytes), slab);
  return slab;
}

void* NodeArena::NewRawSlab() {
  void* raw = ::operator new(kSlabBytes, std::align_val_t{kSlabBytes});
  if (numa_node_ >= 0) {
    // Slabs are kSlabBytes-self-aligned, so the bind covers whole pages.
    // Best-effort: on failure (no SYS_mbind, invalid node) the pages are
    // placed by first touch — which is the owning joiner's pinned
    // thread, landing them on the same node anyway.
    if (TryBindMemoryToNode(raw, kSlabBytes, numa_node_)) {
      SingleWriterAdd(numa_bound_slabs_, 1);
    }
  }
  // Blocks are unpoisoned one by one as the bump pointer hands them out.
  PoisonData(static_cast<Slab*>(raw));
  return raw;
}

void NodeArena::LinkUsable(size_t cls, Slab* slab) {
  slab->prev = nullptr;
  slab->next = usable_[cls];
  if (usable_[cls] != nullptr) usable_[cls]->prev = slab;
  usable_[cls] = slab;
  slab->in_usable = true;
}

void NodeArena::UnlinkUsable(size_t cls, Slab* slab) {
  if (!slab->in_usable) return;
  if (slab->prev != nullptr) {
    slab->prev->next = slab->next;
  } else {
    usable_[cls] = slab->next;
  }
  if (slab->next != nullptr) slab->next->prev = slab->prev;
  slab->prev = nullptr;
  slab->next = nullptr;
  slab->in_usable = false;
}

NodeArena::Stats NodeArena::snapshot() const {
  Stats s;
  s.reserved_bytes = reserved_bytes_.load(std::memory_order_relaxed);
  s.live_nodes = live_nodes_.load(std::memory_order_relaxed);
  s.allocations = allocations_.load(std::memory_order_relaxed);
  s.slab_recycles = slab_recycles_.load(std::memory_order_relaxed);
  s.oversize_allocs = oversize_allocs_.load(std::memory_order_relaxed);
  s.slab_loans = slab_loans_.load(std::memory_order_relaxed);
  s.numa_bound_slabs = numa_bound_slabs_.load(std::memory_order_relaxed);
  return s;
}

size_t NodeArena::EmptySlabCount() const {
  size_t n = 0;
  for (Slab* slab = empty_; slab != nullptr; slab = slab->next) ++n;
  return n;
}

}  // namespace oij
