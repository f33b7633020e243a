#include "common/arena.h"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/bits.h"

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#include <sanitizer/asan_interface.h>
#define C5_ARENA_POISON(p, n) __asan_poison_memory_region((p), (n))
#define C5_ARENA_UNPOISON(p, n) __asan_unpoison_memory_region((p), (n))
#else
#define C5_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define C5_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace c5 {

namespace {

std::size_t RoundUp8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

// Per-thread shard affinity: threads spread round-robin over shards and then
// stick, so a steady worker set partitions the shards with no sharing.
std::atomic<unsigned> g_shard_seed{0};
thread_local unsigned tls_shard_seed = ~0u;

}  // namespace

SlabArena::SlabArena(int shards, bool reuse_blocks)
    : reuse_blocks_(reuse_blocks) {
  const std::size_t n =
      NextPow2(static_cast<std::size_t>(shards < 1 ? 1 : shards));
  shard_mask_ = static_cast<int>(n - 1);
  shards_ = std::vector<Shard>(n);
}

SlabArena::~SlabArena() {
  // Caller guarantees no outstanding objects will be used again; reclaim the
  // address space wholesale. Unpoison first: freeing a block with poisoned
  // interior bytes trips ASan's allocator checks.
  for (void* slab : all_slabs_) {
    C5_ARENA_UNPOISON(slab, kSlabBytes);
    std::free(slab);
  }
}

std::size_t SlabArena::ShardIndex() const {
  if (tls_shard_seed == ~0u) {
    tls_shard_seed = g_shard_seed.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_shard_seed & static_cast<unsigned>(shard_mask_);
}

SlabArena::SlabHeader* SlabArena::PopFreeOrNew() {
  {
    SpinLockGuard lock(free_mu_);
    if (free_head_ != nullptr) {
      SlabHeader* slab = free_head_;
      free_head_ = slab->next_free;
      slab->next_free = nullptr;
      slab->bump = kHeaderBytes;
      slab->live.store(1, std::memory_order_relaxed);  // current-slab ref
      slabs_recycled_.fetch_add(1, std::memory_order_relaxed);
      return slab;
    }
  }
  void* mem = std::aligned_alloc(kSlabBytes, kSlabBytes);
  if (mem == nullptr) return nullptr;
  auto* slab = new (mem) SlabHeader();
  slab->owner = this;
  slab->live.store(1, std::memory_order_relaxed);
  slab->bump = kHeaderBytes;
  slab->listed = 0;
  slab->next_free = nullptr;
  C5_ARENA_POISON(static_cast<char*>(mem) + kHeaderBytes, kMaxAlloc);
  {
    SpinLockGuard lock(free_mu_);
    all_slabs_.push_back(mem);
  }
  slabs_allocated_.fetch_add(1, std::memory_order_relaxed);
  return slab;
}

std::vector<void*>* SlabArena::Shard::FindList(std::uint32_t bytes) {
  for (FreeList& list : free_lists) {
    if (list.bytes == bytes) return &list.blocks;
  }
  return nullptr;
}

void* SlabArena::Allocate(std::size_t bytes) {
  bytes = RoundUp8(bytes);
  if (bytes == 0 || bytes > kMaxAlloc) return nullptr;
  const std::size_t index = ShardIndex();
  Shard& shard = shards_[index];
  SpinLockGuard lock(shard.lock);
  if (std::vector<void*>* list =
          shard.FindList(static_cast<std::uint32_t>(bytes));
      list != nullptr && !list->empty()) {
    // The listed block still holds its slab reference: nothing to count.
    void* p = list->back();
    list->pop_back();
    --SlabOf(p)->listed;
    ++shard.blocks_reused;
    C5_ARENA_UNPOISON(p, bytes);
    return p;
  }
  SlabHeader* slab = shard.current;
  if (slab == nullptr || slab->bump + bytes > kSlabBytes) {
    SlabHeader* fresh = PopFreeOrNew();
    if (fresh == nullptr) return nullptr;
    // Drop the current-slab reference of the slab being sealed; if all its
    // objects were already released this recycles it immediately.
    if (slab != nullptr) {
      if (reuse_blocks_) {
        slab->live.fetch_sub(1, std::memory_order_relaxed);
        RecycleIfAllListed(shard, slab);
      } else {
        DropRef(slab);
      }
    }
    fresh->shard = static_cast<std::uint32_t>(index);
    shard.current = fresh;
    slab = fresh;
  }
  void* p = reinterpret_cast<char*>(slab) + slab->bump;
  slab->bump += static_cast<std::uint32_t>(bytes);
  // Publication order does not matter: concurrent Release() of OTHER objects
  // can drive `live` down, but the current-slab reference keeps it >= 1
  // until this shard seals the slab, so it cannot be recycled under us.
  slab->live.fetch_add(1, std::memory_order_relaxed);
  C5_ARENA_UNPOISON(p, bytes);
  return p;
}

void SlabArena::Release(void* ptr, std::size_t bytes) {
  bytes = RoundUp8(bytes);
  SlabHeader* slab = SlabOf(ptr);
  C5_ARENA_POISON(ptr, bytes);
  SlabArena* arena = slab->owner;
  if (!arena->reuse_blocks_) {
    DropRef(slab);
    return;
  }
  Shard& shard = arena->shards_[slab->shard];
  const auto size = static_cast<std::uint32_t>(bytes);
  SpinLockGuard lock(shard.lock);
  std::vector<void*>* list = shard.FindList(size);
  if (list == nullptr) {
    shard.free_lists.push_back(FreeList{size, {}});
    list = &shard.free_lists.back().blocks;
  }
  list->push_back(ptr);
  ++slab->listed;
  arena->RecycleIfAllListed(shard, slab);
}

void SlabArena::RecycleIfAllListed(Shard& shard, SlabHeader* slab) {
  // `live` counts the listed blocks, the outstanding ones and the current
  // reference: equal to `listed`, the slab is sealed and wholly free.
  if (slab->live.load(std::memory_order_relaxed) != slab->listed) return;
  for (FreeList& list : shard.free_lists) {
    std::erase_if(list.blocks, [slab](void* p) { return SlabOf(p) == slab; });
  }
  slab->listed = 0;
  slab->live.store(0, std::memory_order_relaxed);
  Recycle(slab);
}

void SlabArena::DropRef(SlabHeader* slab) {
  // acq_rel: releases the caller's writes to the object (so the next owner
  // of the recycled slab cannot observe stale bytes) and acquires all prior
  // releases when this is the final reference.
  if (slab->live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    slab->owner->Recycle(slab);
  }
}

void SlabArena::Recycle(SlabHeader* slab) {
  assert(slab->live.load(std::memory_order_relaxed) == 0);
  SpinLockGuard lock(free_mu_);
  slab->next_free = free_head_;
  free_head_ = slab;
}

std::uint64_t SlabArena::BlocksReused() const {
  std::uint64_t n = 0;
  for (const Shard& shard : shards_) {
    SpinLockGuard lock(shard.lock);
    n += shard.blocks_reused;
  }
  return n;
}

std::size_t SlabArena::SlabsFree() const {
  SpinLockGuard lock(free_mu_);
  std::size_t n = 0;
  for (const SlabHeader* s = free_head_; s != nullptr; s = s->next_free) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// ArenaRope

ArenaRope::Chunk* ArenaRope::Grow(std::size_t need) {
  Chunk c{};
  if (need > kChunkBytes) {
    // Oversized value: dedicated chunk, exactly sized. Prefer the arena when
    // it fits a slab; otherwise heap.
    if (need <= SlabArena::kMaxAlloc) {
      c.data = static_cast<char*>(arena_->Allocate(need));
    }
    if (c.data == nullptr) {
      c.data = new char[need];
      c.heap = true;
    }
    c.cap = static_cast<std::uint32_t>(need);
  } else {
    c.data = static_cast<char*>(arena_->Allocate(kChunkBytes));
    if (c.data == nullptr) {
      c.data = new char[kChunkBytes];
      c.heap = true;
    }
    c.cap = kChunkBytes;
  }
  c.used = 0;
  chunks_.push_back(c);
  return &chunks_.back();
}

std::string_view ArenaRope::Append(std::string_view bytes) {
  if (bytes.empty()) return {};
  Chunk* c = chunks_.empty() ? nullptr : &chunks_.back();
  if (c == nullptr || c->cap - c->used < bytes.size()) c = Grow(bytes.size());
  char* dst = c->data + c->used;
  std::memcpy(dst, bytes.data(), bytes.size());
  c->used += static_cast<std::uint32_t>(bytes.size());
  total_ += bytes.size();
  return {dst, bytes.size()};
}

void ArenaRope::Clear() {
  for (Chunk& c : chunks_) {
    if (c.heap) {
      delete[] c.data;
    } else {
      SlabArena::Release(c.data, c.cap);
    }
  }
  chunks_.clear();
  total_ = 0;
}

SlabArena& ShippingArena() {
  // Leaked on purpose (see header): reachable-at-exit, so LSan stays quiet.
  static SlabArena* arena = new SlabArena(/*shards=*/4);
  return *arena;
}

}  // namespace c5
