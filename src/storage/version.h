#ifndef C5_STORAGE_VERSION_H_
#define C5_STORAGE_VERSION_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>

#include "common/arena.h"
#include "common/types.h"

namespace c5::storage {

// Lifecycle of a version in the chain. The MVTSO engine installs kPending
// versions during execution and flips them at commit/abort; the 2PL engine
// and all replica protocols install kCommitted versions directly.
enum class VersionStatus : std::uint8_t {
  kPending = 0,
  kCommitted = 1,
  kAborted = 2,
};

// One entry in a row's version list. Entries are linked newest-to-oldest in
// descending write-timestamp order (Cicada's layout, §7.1 of the paper).
//
// The row payload is stored INLINE, immediately after this struct, in the
// same allocation — one block per version, no std::string indirection. In
// steady state versions come from a per-table slab arena (version_arena.h);
// oversized payloads fall back to a single operator-new block (origin
// distinguished by `heap`). Construct through VersionArena::Create or
// Version::NewHeap, never `new Version`; free through FreeVersion /
// FreeVersionChain, never `delete`.
//
// Immutable after publication: write_ts, payload, size, deleted, heap.
// Mutable: read_ts (CAS-max by readers), status (pending ->
// committed/aborted), next (only changed by GC unlink).
struct Version {
  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  // The inlined payload.
  std::string_view value() const {
    return std::string_view(reinterpret_cast<const char*>(this + 1), size);
  }

  // Advances read_ts to at least `ts` (CAS-max loop).
  void ObserveRead(Timestamp ts) {
    Timestamp cur = read_ts.load(std::memory_order_relaxed);
    while (cur < ts && !read_ts.compare_exchange_weak(
                           cur, ts, std::memory_order_acq_rel)) {
    }
  }

  VersionStatus Status() const {
    return status.load(std::memory_order_acquire);
  }
  void SetStatus(VersionStatus s) {
    status.store(s, std::memory_order_release);
  }

  Version* Next() const { return next.load(std::memory_order_acquire); }

  // Total allocation footprint (header + inline payload), the size a slab
  // release must return.
  std::size_t AllocBytes() const { return sizeof(Version) + size; }

  // Heap-path factory for payloads the arena cannot hold (or callers with no
  // arena). One operator-new block, payload inlined like the arena path.
  static Version* NewHeap(Timestamp ts, std::string_view value,
                          bool is_delete,
                          VersionStatus st = VersionStatus::kPending) {
    void* mem = ::operator new(sizeof(Version) + value.size());
    return new (mem) Version(ts, value, is_delete, /*is_heap=*/true, st);
  }

  const Timestamp write_ts;
  std::atomic<Timestamp> read_ts;
  std::atomic<Version*> next;
  const std::uint32_t size;  // payload bytes
  std::atomic<VersionStatus> status;
  const bool deleted;  // tombstone flag
  const bool heap;     // allocation origin: operator new vs slab arena

 private:
  friend class VersionArena;

  Version(Timestamp ts, std::string_view value, bool is_delete, bool is_heap,
          VersionStatus st)
      : write_ts(ts),
        read_ts(0),
        next(nullptr),
        size(static_cast<std::uint32_t>(value.size())),
        status(st),
        deleted(is_delete),
        heap(is_heap) {
    if (!value.empty()) {
      std::memcpy(reinterpret_cast<char*>(this + 1), value.data(),
                  value.size());
    }
  }
};

static_assert(alignof(Version) <= 8,
              "slab allocations are 8-aligned; Version must fit that");

// Returns a version's storage to its origin: operator delete, or the
// table arena's free list for its size (whence the next version of that size
// is carved). The caller must guarantee no concurrent reader can still
// observe `v` (epoch grace period for published versions; immediate for
// never-published ones).
inline void FreeVersion(Version* v) {
  const std::size_t bytes = v->AllocBytes();
  if (v->heap) {
    v->~Version();
    ::operator delete(v);
  } else {
    v->~Version();
    SlabArena::Release(v, bytes);
  }
}

// EpochManager deleter for a single unlinked version.
inline void FreeVersionDeleter(void* v) {
  FreeVersion(static_cast<Version*>(v));
}

// EpochManager batch deleter for an entire truncated chain (the tail links
// are unreachable once the unlink epoch expires). Returns the number of
// versions freed, so ReclaimSome() can report exact reclamation counts
// without GC ever walking the dead chain up front.
inline std::size_t FreeVersionChain(void* v) {
  auto* cur = static_cast<Version*>(v);
  std::size_t n = 0;
  while (cur != nullptr) {
    Version* next = cur->next.load(std::memory_order_relaxed);
    FreeVersion(cur);
    cur = next;
    ++n;
  }
  return n;
}

}  // namespace c5::storage

#endif  // C5_STORAGE_VERSION_H_
