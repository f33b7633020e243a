// Epoch-aware slab arena for the replay hot path.
//
// Invariants (see docs/PERFORMANCE.md for the full design):
//  * Slabs are 64 KiB blocks aligned to their own size, so Release() finds a
//    block's slab header by masking the pointer — no per-object header.
//  * Objects are bump-allocated; individual objects are never reused. A slab
//    returns to the arena's freelist only when every object carved from it
//    has been released AND it is no longer any shard's current slab (tracked
//    by the `live` reference count, which includes one reference for being
//    current). Whole-slab recycling is what makes retirement O(1) per object
//    and allocation malloc-free in steady state.
//  * Callers must delay Release() of a published object until no concurrent
//    reader can hold a pointer to it (the storage layer routes frees through
//    EpochManager). Unpublished objects may be released immediately.
//  * Memory handed out by a destroyed arena is invalid: the arena frees all
//    its slabs on destruction regardless of outstanding references.
//
// Under AddressSanitizer the arena poisons released objects and recycled
// slabs, so use-after-retire inside a slab is caught just like a heap
// use-after-free would be (the PR-1 GC race class stays detectable).

#ifndef C5_COMMON_ARENA_H_
#define C5_COMMON_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string_view>
#include <vector>

#include "common/spin_lock.h"
#include "common/thread_annotations.h"

namespace c5 {

class SlabArena {
 public:
  static constexpr std::size_t kSlabShift = 16;  // 64 KiB slabs
  static constexpr std::size_t kSlabBytes = std::size_t{1} << kSlabShift;
  // Slab header lives in the first cache line of the block.
  static constexpr std::size_t kHeaderBytes = 64;
  // Largest single allocation; bigger payloads take the caller's heap path.
  static constexpr std::size_t kMaxAlloc = kSlabBytes - kHeaderBytes;

  // `shards` independent bump cursors (rounded up to a power of two) so
  // concurrent allocators — replay workers, primary engine threads — do not
  // serialize on one spinlock. Each shard lock is held for a few
  // instructions per allocation.
  explicit SlabArena(int shards = 4);
  ~SlabArena();

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  // Returns 8-aligned storage of `bytes` (rounded up to 8), or nullptr when
  // bytes > kMaxAlloc or the system allocator fails. Thread-safe.
  void* Allocate(std::size_t bytes);

  // Releases storage obtained from Allocate(). `bytes` must be the size
  // passed to Allocate. Static: the owning arena is recovered from the slab
  // header, so deleters need not carry an arena pointer. Thread-safe,
  // lock-free except when it recycles the slab.
  static void Release(void* ptr, std::size_t bytes);

  // ---- Statistics (relaxed; for tests and bench reporting) -----------------

  // Slabs ever obtained from the system allocator.
  std::uint64_t SlabsAllocated() const {
    return slabs_allocated_.load(std::memory_order_relaxed);
  }
  // Times a fully-released slab was handed out again instead of malloc'ing.
  std::uint64_t SlabsRecycled() const {
    return slabs_recycled_.load(std::memory_order_relaxed);
  }
  // Slabs currently sitting in the freelist.
  std::size_t SlabsFree() const;

  std::size_t BytesReserved() const {
    return SlabsAllocated() * kSlabBytes;
  }

 private:
  struct SlabHeader {
    SlabArena* owner;
    // Outstanding allocations + 1 while the slab is some shard's current.
    std::atomic<std::uint32_t> live;
    // Next free byte offset from the slab base. Mutated only under the
    // owning shard's lock (or the freelist lock during recycling, when no
    // shard references the slab).
    std::uint32_t bump;
    SlabHeader* next_free;
  };
  static_assert(sizeof(SlabHeader) <= kHeaderBytes);

  struct alignas(64) Shard {
    // Nests BEFORE free_mu_: Allocate refills the current slab from the
    // freelist while holding the shard lock (kArenaShard < kArenaFree).
    SpinLock lock{LockRank::kArenaShard};
    SlabHeader* current C5_GUARDED_BY(lock) = nullptr;
  };

  static void DropRef(SlabHeader* slab);
  void Recycle(SlabHeader* slab);
  SlabHeader* PopFreeOrNew();
  std::size_t ShardIndex() const;

  int shard_mask_;
  std::vector<Shard> shards_;

  mutable SpinLock free_mu_{LockRank::kArenaFree};
  SlabHeader* free_head_ C5_GUARDED_BY(free_mu_) = nullptr;
  std::vector<void*> all_slabs_ C5_GUARDED_BY(free_mu_);  // for destruction

  std::atomic<std::uint64_t> slabs_allocated_{0};
  std::atomic<std::uint64_t> slabs_recycled_{0};
};

// Append-only byte rope carved from SlabArena chunks: the storage behind the
// allocation-free shipping path. Append() copies bytes into the current chunk
// and returns a STABLE string_view (chunks never move or shrink); a value
// never spans chunks. Chunks return to the arena wholesale on Clear() /
// destruction, so in steady state (recycled slabs) the rope performs no heap
// allocation. Oversized appends (> SlabArena::kMaxAlloc) fall back to a
// dedicated heap chunk. NOT thread-safe; callers synchronize externally.
class ArenaRope {
 public:
  // Default chunk: 4 chunks per 64 KiB slab, minus slack for rounding.
  static constexpr std::size_t kChunkBytes = 16 * 1024 - 16;

  explicit ArenaRope(SlabArena* arena) : arena_(arena) {}
  ~ArenaRope() { Clear(); }

  ArenaRope(const ArenaRope&) = delete;
  ArenaRope& operator=(const ArenaRope&) = delete;
  ArenaRope(ArenaRope&& other) noexcept
      : arena_(other.arena_),
        chunks_(std::move(other.chunks_)),
        total_(other.total_) {
    other.chunks_.clear();
    other.total_ = 0;
  }

  std::string_view Append(std::string_view bytes);

  // Releases every chunk back to its allocator. All views handed out by
  // Append() are invalid afterwards.
  void Clear();

  std::size_t TotalBytes() const { return total_; }

 private:
  struct Chunk {
    char* data;
    std::uint32_t cap;
    std::uint32_t used;
    bool heap;  // oversize fallback: operator new[], not a slab
  };

  Chunk* Grow(std::size_t need);

  SlabArena* arena_;
  std::vector<Chunk> chunks_;
  std::size_t total_ = 0;
};

// Process-wide arena backing the log shipping pipeline (segment value ropes
// and record arrays, replay worker batches). Intentionally leaked: segments
// can be owned by statics whose destruction order vs. a function-local
// arena is undefined.
SlabArena& ShippingArena();

// std::allocator stand-in over ShippingArena() for containers whose blocks
// churn with segment lifetime. Freed blocks recycle through the arena's
// slabs instead of the system heap, which would hand large freed blocks back
// to the kernel (a madvise and a TLB shootdown across every thread of the
// process) only to fault them in again for the next segment. Blocks larger
// than SlabArena::kMaxAlloc use operator new.
template <typename T>
struct ShippingAllocator {
  using value_type = T;

  ShippingAllocator() = default;
  template <typename U>
  ShippingAllocator(const ShippingAllocator<U>&) {}  // NOLINT: rebinding

  static bool InArena(std::size_t bytes) {
    return bytes != 0 && bytes <= SlabArena::kMaxAlloc;
  }

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (!InArena(bytes)) return static_cast<T*>(::operator new(bytes));
    void* p = ShippingArena().Allocate(bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (InArena(bytes)) {
      SlabArena::Release(p, bytes);
    } else {
      ::operator delete(p);
    }
  }

  template <typename U>
  bool operator==(const ShippingAllocator<U>&) const {
    return true;
  }
};

}  // namespace c5

#endif  // C5_COMMON_ARENA_H_
