#ifndef C5_INDEX_ORDERED_INDEX_H_
#define C5_INDEX_ORDERED_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "common/arena.h"
#include "common/spin_lock.h"
#include "common/types.h"

namespace c5::index {

// Concurrent ordered secondary index mapping keys to internal row ids — the
// range-read companion to HashIndex. HashIndex::CollectRange visited every
// entry in the index per scan (O(total-keys)); this index backs
// Snapshot::Scan with a walk whose cost is O(log n + matches), so range
// reads and aggregation pushdown on backups (the HTAP read surface) scale
// with the result size, not the table size.
//
// Structure: a skiplist with lock-free readers and CAS-linked inserts.
//  * Readers (Lookup / Seek / cursors / ForEach) take NO lock: they traverse
//    acquire-loaded next pointers. Nodes are never unlinked or freed while
//    the index lives (Erase is logical — the binding is cleared, the node
//    stays), so a reader can never chase a dangling pointer; all node memory
//    is released wholesale by the destructor.
//  * Inserts link new nodes bottom-up with per-level CAS (RocksDB
//    InlineSkipList-style); a lost race at the bottom level degrades to an
//    update of the winner's node. Nodes are bump-allocated from a private
//    SlabArena, so steady-state inserts cost no heap allocation (one slab
//    malloc per ~1k nodes) — the replay apply paths stay allocation-free.
//  * Updates of an existing binding serialize on a per-node spinlock that
//    only writers touch. This carries the same timestamp-aware discipline
//    as HashIndex::UpsertIfNewer: parallel replay workers applying records
//    for different incarnations of a key (delete + re-insert allocates a
//    fresh row) converge to the NEWEST row whatever order they land in.
//
// Tower heights are a pure function of the key (2 hash bits per level,
// branching factor 4), so the structure is deterministic for a given key
// set — DST seed replays are bit-for-bit reproducible regardless of worker
// interleaving, and a key that loses an insert race re-finds the same tower
// shape.
//
// Keyspace: [0, kMaxUsableKey]. The top two key values are reserved so the
// paired HashIndex (whose open-addressing slots store user keys +2 to keep
// raw keys 0 and 1 distinct from the kEmpty/kTombstone sentinels) covers
// exactly the same domain; Seek's half-open [lo, hi) therefore never wraps,
// even at hi == 2^64-1.
class OrderedIndex {
 private:
  static constexpr int kMaxHeight = 20;

  struct Node {
    Node(Key k, int h) : key(k), height(h) {}

    const Key key;
    std::atomic<RowId> row{kInvalidRowId};
    std::atomic<Timestamp> ts{0};
    // Serializes writers updating THIS node's binding. Readers never take
    // it (the lock-free read-path requirement); rank kIndexShard, and node
    // locks are never nested (no writer holds two bindings at once).
    SpinLock mu{LockRank::kIndexShard};
    const std::int32_t height;
    // Tower of forward pointers, allocated inline: next[0..height-1]. The
    // declared single element is the bottom level; NewNode over-allocates
    // and placement-constructs the rest contiguously after it.
    std::atomic<Node*> next[1] = {nullptr};
  };

 public:
  // Largest key either index implementation can store (see class comment).
  static constexpr Key kMaxUsableKey = ~Key{0} - 2;

  OrderedIndex();
  ~OrderedIndex() = default;  // arena_ frees every node's slab

  OrderedIndex(const OrderedIndex&) = delete;
  OrderedIndex& operator=(const OrderedIndex&) = delete;

  // Inserts key -> row with binding timestamp 0. Returns false (and leaves
  // the index unchanged) if the key is present and not erased.
  bool Insert(Key key, RowId row);

  // Inserts or overwrites unconditionally (binding timestamp resets to 0).
  // Primary-side paths: engines bind under per-key mutual exclusion.
  void Upsert(Key key, RowId row);

  // Timestamp-aware upsert: binds key -> row only if `ts` is at or above
  // the existing binding's timestamp (absent and erased keys always bind).
  // Returns true if the binding was installed or refreshed. Same contract
  // as HashIndex::UpsertIfNewer — backup apply paths call both through
  // storage::Database::BindIfNewer.
  bool UpsertIfNewer(Key key, RowId row, Timestamp ts);

  // Lock-free point lookup. nullopt for absent or erased keys.
  std::optional<RowId> Lookup(Key key) const;

  // Lookup that also reports the binding's timestamp (0 for bindings made
  // with plain Upsert/Insert). Checkpointing and the DST oracle use it.
  std::optional<std::pair<RowId, Timestamp>> LookupWithTs(Key key) const;

  // Logically removes the binding (the node is retained and revivable by a
  // later Insert/Upsert*). Returns false if absent or already erased.
  bool Erase(Key key);

  // Live (non-erased) bindings.
  std::size_t Size() const {
    return size_.load(std::memory_order_acquire);
  }

  // Streaming ordered iteration over the live bindings in [lo, hi),
  // ascending. Lock-free and allocation-free; bindings inserted or erased
  // concurrently may or may not be observed (same contract as ForEach).
  //
  //   for (auto c = idx.Seek(lo, hi); c.Valid(); c.Next())
  //     use(c.key(), c.row());
  class Cursor {
   public:
    bool Valid() const { return node_ != nullptr; }
    Key key() const { return node_->key; }
    RowId row() const { return node_->row.load(std::memory_order_acquire); }
    Timestamp binding_ts() const {
      return node_->ts.load(std::memory_order_acquire);
    }
    void Next() {
      node_ = node_->next[0].load(std::memory_order_acquire);
      Settle();
    }

   private:
    friend class OrderedIndex;
    Cursor(const Node* node, Key hi) : node_(node), hi_(hi) { Settle(); }
    // Skips erased nodes; clears node_ at the hi bound (key >= hi, so a
    // hi at the top of the key space cannot wrap the walk).
    void Settle() {
      while (node_ != nullptr) {
        if (node_->key >= hi_) {
          node_ = nullptr;
          return;
        }
        if (node_->row.load(std::memory_order_acquire) != kInvalidRowId) {
          return;
        }
        node_ = node_->next[0].load(std::memory_order_acquire);
      }
    }

    const Node* node_;
    Key hi_;
  };

  // Positions a cursor at the first live key >= lo, bounded by hi
  // (half-open: keys >= hi are not returned; lo == hi yields an empty
  // cursor). O(log n) to position, O(1) amortized per advance.
  Cursor Seek(Key lo, Key hi) const;

  // Visits every live (key, row, binding_ts) in ascending key order.
  // Lock-free; `fn` may call back into the index (unlike HashIndex::ForEach
  // there is no shard lock to self-deadlock on).
  void ForEach(const std::function<void(Key, RowId, Timestamp)>& fn) const;

 private:
  enum class Mode { kKeepExisting, kOverwrite, kIfNewer };

  static std::uint64_t HashKey(Key key) {
    std::uint64_t h = key + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
  }

  // Deterministic tower height: 2 hash bits per level (P(level+1) = 1/4).
  static int HeightForKey(Key key) {
    std::uint64_t bits = HashKey(key);
    int height = 1;
    while (height < kMaxHeight && (bits & 3) == 0) {
      ++height;
      bits >>= 2;
    }
    return height;
  }

  Node* NewNode(Key key, int height);

  // First node with node->key >= key, or nullptr. When `prev` is non-null
  // it receives, for every level, the last node with node->key < key (the
  // insert splice).
  Node* FindGreaterOrEqual(Key key, Node** prev) const;
  Node* FindNode(Key key) const;

  bool UpsertCommon(Key key, RowId row, Timestamp ts, Mode mode);
  bool UpdateNode(Node* n, RowId row, Timestamp ts, Mode mode);

  SlabArena arena_;
  Node* head_;  // full-height sentinel, key semantics: before everything
  std::atomic<int> max_height_{1};
  std::atomic<std::size_t> size_{0};
};

}  // namespace c5::index

#endif  // C5_INDEX_ORDERED_INDEX_H_
