#ifndef C5_INDEX_HASH_INDEX_H_
#define C5_INDEX_HASH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/spin_lock.h"
#include "common/types.h"

namespace c5::index {

// Concurrent hash index mapping externally meaningful keys to internal row
// ids ("externally meaningful keys are mapped to row IDs through indices",
// §7.1). Sharded open-addressing tables with per-shard spinlocks: lookups and
// inserts touch exactly one shard, so throughput scales with shard count.
//
// Each binding carries the commit timestamp of the record that created it.
// Backup apply paths bind through UpsertIfNewer, so for a key whose row id
// changes over its history (a delete followed by a re-insert allocates a
// fresh row) the index converges to the NEWEST row regardless of the order
// in which parallel workers apply the old-row and new-row records — apply
// order is not commit order across rows (timestamp-aware index binding;
// found by the DST logical-snapshot oracle).
//
// Deleted rows keep their index entry: a read at an old snapshot timestamp
// must still resolve the key to the row and then observe the tombstone (or
// live version) appropriate for that timestamp. Erase() exists for tests and
// for workloads that recycle keys.
//
// Shards size themselves from what they hold: each starts at
// `initial_capacity_per_shard` slots (8 by default) and doubles when an
// insert would pass 75% load, so an index costs memory in proportion to its
// keys, not to a guessed cardinality.
class HashIndex {
 public:
  explicit HashIndex(std::size_t initial_capacity_per_shard = 8,
                     int shard_count = 128);

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  // Inserts key -> row. Returns false (and leaves the index unchanged) if the
  // key is already present.
  bool Insert(Key key, RowId row);

  // Inserts or overwrites unconditionally (binding timestamp resets to 0).
  // Primary-side paths use this: engines bind under per-key mutual exclusion,
  // so apply order IS commit order there.
  void Upsert(Key key, RowId row);

  // Timestamp-aware upsert: binds key -> row only if `ts` is at or above the
  // existing binding's timestamp (absent keys always bind). Returns true if
  // the binding was installed or refreshed. Backup apply paths use this so
  // that concurrent workers applying records for different incarnations of
  // the same key converge to the newest row.
  bool UpsertIfNewer(Key key, RowId row, Timestamp ts);

  // Takes the shard's spinlock even though it only reads: Grow() replaces
  // the shard's slot array in place, and shards grow throughout a table's
  // life (every doubling from 8 slots up), so a lock-free reader could chase
  // a freed array mid-probe. Making reads lock-free would require
  // epoch-protecting the slot arrays (retire-and-republish on grow), which
  // buys little here: the lock is uncontended in the hot paths (replay
  // workers only Upsert, and reads hash to 128 shards), a probe holds it for
  // a handful of instructions, and a Grow() of a shard holding n keys blocks
  // only that shard's readers for one O(n) copy.
  std::optional<RowId> Lookup(Key key) const;

  // Lookup that also reports the binding's timestamp (0 for bindings made
  // with plain Upsert/Insert). Used by checkpointing and the DST oracle.
  std::optional<std::pair<RowId, Timestamp>> LookupWithTs(Key key) const;

  // Removes the entry. Returns false if absent.
  bool Erase(Key key);

  std::size_t Size() const;

  // Visits every (key, row, binding_ts) entry, one shard at a time under
  // that shard's lock. `fn` must not call back into the index. Entries
  // inserted or erased concurrently may or may not be visited
  // (checkpointers call this on quiesced backups, where the index is
  // stable).
  void ForEach(const std::function<void(Key, RowId, Timestamp)>& fn) const;

  // Collects every entry with lo <= key < hi into *out, sorted by key
  // ascending. The hash index has no key order, so this visits every shard
  // (one lock at a time) and sorts: O(entries + matches log matches). This
  // is the backing primitive for Snapshot::Scan — adequate for an embedded
  // read surface; an ordered secondary index would replace it if range reads
  // ever become a hot path.
  void CollectRange(Key lo, Key hi,
                    std::vector<std::pair<Key, RowId>>* out) const;

 private:
  // Open-addressing table with linear probing and tombstones. Slot states
  // are encoded in the key field; user keys are stored +2 so that raw keys
  // 0 and 1 remain usable.
  struct Shard {
    static constexpr std::uint64_t kEmpty = 0;
    static constexpr std::uint64_t kTombstone = 1;

    struct Slot {
      std::uint64_t key = kEmpty;  // kEmpty, kTombstone, or user key + 2
      RowId row = kInvalidRowId;
      Timestamp ts = 0;  // binding timestamp (0: bound without one)
    };

    // Overwrite policy for InsertLocked.
    enum class Mode { kKeepExisting, kOverwrite, kIfNewer };

    // Non-reentrant (rank kIndexShard): code running under it — including
    // every ForEach/CollectRange callback — must not call back into the
    // index. The PR-6 self-deadlock class (ForEach -> ReadKeyAt -> Lookup)
    // now aborts instantly under the lock-rank registry instead of hanging.
    mutable SpinLock lock{LockRank::kIndexShard};
    std::vector<Slot> slots C5_GUARDED_BY(lock);
    std::size_t size C5_GUARDED_BY(lock) = 0;      // live entries
    std::size_t occupied C5_GUARDED_BY(lock) = 0;  // live + tombstones

    // Doubles the slot array, dropping tombstones.
    void Grow() C5_REQUIRES(lock);
    bool InsertLocked(std::uint64_t stored_key, RowId row, Timestamp ts,
                      Mode mode) C5_REQUIRES(lock);
    const Slot* FindLocked(std::uint64_t stored_key) const C5_REQUIRES(lock);
    bool EraseLocked(std::uint64_t stored_key) C5_REQUIRES(lock);
  };

  static std::uint64_t HashKey(Key key) {
    // Fibonacci/murmur-style finalizer.
    std::uint64_t h = key + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
  }

  Shard& ShardFor(Key key) {
    return shards_[ShardIndex(key)];
  }
  const Shard& ShardFor(Key key) const {
    return shards_[ShardIndex(key)];
  }

  std::size_t ShardIndex(Key key) const {
    // shard_shift_ is 64 when there is a single shard; shifting by the full
    // width is undefined, so special-case it.
    return shard_shift_ >= 64 ? 0 : (HashKey(key) >> shard_shift_);
  }

  int shard_shift_;
  std::unique_ptr<Shard[]> shards_;
  int shard_count_;
};

}  // namespace c5::index

#endif  // C5_INDEX_HASH_INDEX_H_
