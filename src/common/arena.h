// Epoch-aware slab arena for the replay hot path.
//
// Invariants (see docs/PERFORMANCE.md for the full design):
//  * Slabs are 64 KiB blocks aligned to their own size, so Release() finds a
//    block's slab header by masking the pointer — no per-object header.
//  * Objects are bump-allocated. A slab returns to the arena's freelist only
//    when every object carved from it has been released AND it is no longer
//    any shard's current slab (tracked by the `live` reference count, which
//    includes one reference for being current). Whole-slab recycling makes
//    allocation malloc-free in steady state when lifetimes are FIFO-like
//    (the shipping pipeline's segments).
//  * An arena built with reuse_blocks (the per-table version arenas) also
//    reuses single blocks: Release() puts a block on a free list for its
//    exact rounded size, kept by the shard that carved its slab (recorded in
//    the slab header), and Allocate() takes a block from its shard's list
//    before it bump-allocates. A listed block keeps its slab's `live`
//    reference, so a slab is never handed out whole while one of its blocks
//    is listed; a sealed slab whose blocks are all listed leaves the lists
//    and is recycled whole. The lists are unbounded: a pass that reclaims a
//    backlog (after a long reader or an export pin held the horizon back)
//    lists all of it, at 8 B per block, and the next versions of that size
//    reuse it.
//    Without block reuse, random lifetimes (uniform updates, growing
//    tables) pin every slab that still holds one live object, and the
//    footprint grows to several times the live set.
//  * Callers must delay Release() of a published object until no concurrent
//    reader can hold a pointer to it (the storage layer routes frees through
//    EpochManager). Unpublished objects may be released immediately.
//  * Memory handed out by a destroyed arena is invalid: the arena frees all
//    its slabs on destruction regardless of outstanding references.
//
// Under AddressSanitizer the arena poisons released objects (listed blocks
// included: a list is a vector of pointers, nothing is written into the
// block) and recycled slabs, so use-after-retire inside a slab is caught
// just like a heap use-after-free would be.

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
  struct Shard;

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
  //
  // `reuse_blocks` turns on the per-size free lists (see the file comment).
  explicit SlabArena(int shards = 4, bool reuse_blocks = false);
  ~SlabArena();

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  // Returns 8-aligned storage of `bytes` (rounded up to 8), or nullptr when
  // bytes > kMaxAlloc or the system allocator fails. Thread-safe.
  void* Allocate(std::size_t bytes);

  // Releases storage obtained from Allocate(). `bytes` must be the size
  // passed to Allocate. Static: the owning arena is recovered from the slab
  // header, so deleters need not carry an arena pointer. Thread-safe; takes
  // the carving shard's lock to list the block (reuse_blocks), otherwise
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
  // Allocations served from a free list instead of the bump cursor.
  std::uint64_t BlocksReused() const;

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
    // The shard this slab was last current in: its blocks are listed there.
    // Written when the slab becomes current, which happens-before every
    // allocation (and so every release) of a block carved from it.
    std::uint32_t shard;
    // reuse_blocks: how many of its blocks are on that shard's lists.
    // Guarded by that shard's lock, as `live` is in such an arena.
    std::uint32_t listed;
    SlabHeader* next_free;
  };
  static_assert(sizeof(SlabHeader) <= kHeaderBytes);

  // Released blocks of one rounded size, newest last (reuse is LIFO, so the
  // block handed out was the most recently touched).
  struct FreeList {
    std::uint32_t bytes;
    std::vector<void*> blocks;
  };

  struct alignas(64) Shard {
    // Nests BEFORE free_mu_: Allocate refills the current slab from the
    // freelist while holding the shard lock (kArenaShard < kArenaFree).
    mutable SpinLock lock{LockRank::kArenaShard};
    SlabHeader* current C5_GUARDED_BY(lock) = nullptr;
    // A table holds few block sizes (one per fixed-size row type), so a
    // linear scan beats hashing.
    std::vector<FreeList> free_lists C5_GUARDED_BY(lock);
    std::uint64_t blocks_reused C5_GUARDED_BY(lock) = 0;

    // The list of `bytes`-sized blocks, or nullptr if none was made yet.
    std::vector<void*>* FindList(std::uint32_t bytes) C5_REQUIRES(lock);
  };

  static SlabHeader* SlabOf(void* ptr) {
    return reinterpret_cast<SlabHeader*>(reinterpret_cast<std::uintptr_t>(ptr) &
                                         ~(kSlabBytes - 1));
  }
  static void DropRef(SlabHeader* slab);
  // reuse_blocks: once `slab` is sealed and every block carved from it is
  // listed, takes its blocks off `shard`'s lists (a scan of the lists) and
  // recycles it whole, so a table whose lifetimes are FIFO-like still
  // returns slabs to the freelist for blocks of any size.
  void RecycleIfAllListed(Shard& shard, SlabHeader* slab)
      C5_REQUIRES(shard.lock);
  void Recycle(SlabHeader* slab);
  SlabHeader* PopFreeOrNew();
  std::size_t ShardIndex() const;

  int shard_mask_;
  const bool reuse_blocks_;
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
