// Per-table version allocator: Version objects with their payload inlined
// into 64 KiB slabs (common/arena.h), so the replay install path performs no
// heap allocation in steady state and GC retirement is a free-list push per
// version instead of a free().
//
// The arena reuses single blocks: a reclaimed version's block goes onto the
// free list for its exact rounded size, kept by the arena shard that carved
// it, and Create() takes from that list before it bump-allocates. A table's
// version memory therefore follows its live versions whatever their
// lifetimes; whole-slab recycling alone (the shipping arena's rule) would
// pin every slab that still holds one live version.
//
// Interplay with epoch reclamation: a published version must only reach
// FreeVersion() through EpochManager::Retire/RetireBatch, which delays the
// free-list push past the grace period. A block is reused only after that
// push, so reused memory can never be reached through a chain a reader is
// still traversing.

#ifndef C5_STORAGE_VERSION_ARENA_H_
#define C5_STORAGE_VERSION_ARENA_H_

#include <atomic>
#include <cstdint>
#include <string_view>

#include "common/arena.h"
#include "storage/version.h"

namespace c5::storage {

class VersionArena {
 public:
  VersionArena() = default;

  VersionArena(const VersionArena&) = delete;
  VersionArena& operator=(const VersionArena&) = delete;

  // Creates a version with `value` copied inline. Payloads larger than the
  // slab limit (or allocation failure) fall back to a heap block; either way
  // the object is freed with FreeVersion, which dispatches on origin.
  Version* Create(Timestamp ts, std::string_view value, bool is_delete,
                  VersionStatus status);

  // Versions that took the heap fallback path (oversized payloads).
  std::uint64_t HeapFallbacks() const {
    return heap_fallbacks_.load(std::memory_order_relaxed);
  }

  SlabArena& slabs() { return slabs_; }
  const SlabArena& slabs() const { return slabs_; }

 private:
  SlabArena slabs_{/*shards=*/4, /*reuse_blocks=*/true};
  std::atomic<std::uint64_t> heap_fallbacks_{0};
};

}  // namespace c5::storage

#endif  // C5_STORAGE_VERSION_ARENA_H_
