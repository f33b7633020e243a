#include "index/ordered_index.h"

#include <cassert>
#include <new>
#include <vector>

namespace c5::index {

OrderedIndex::OrderedIndex() {
  // The head sentinel orders before every key; its key field is never read.
  head_ = NewNode(Key{0}, kMaxHeight);
}

OrderedIndex::Node* OrderedIndex::NewNode(Key key, int height) {
  // The tower is allocated inline after the node: next[0] is the declared
  // member, next[1..height-1] live in the over-allocated tail.
  const std::size_t bytes =
      sizeof(Node) + static_cast<std::size_t>(height - 1) * sizeof(std::atomic<Node*>);
  void* mem = arena_.Allocate(bytes);
  assert(mem != nullptr);
  Node* n = new (mem) Node(key, height);
  for (int level = 1; level < height; ++level) {
    new (&n->next[level]) std::atomic<Node*>(nullptr);
  }
  return n;
}

OrderedIndex::Node* OrderedIndex::FindGreaterOrEqual(Key key,
                                                     Node** prev) const {
  Node* x = head_;
  int level = max_height_.load(std::memory_order_acquire) - 1;
  while (true) {
    Node* nx = x->next[level].load(std::memory_order_acquire);
    if (nx != nullptr && nx->key < key) {
      x = nx;
      continue;
    }
    if (prev != nullptr) prev[level] = x;
    if (level == 0) return nx;
    --level;
  }
}

OrderedIndex::Node* OrderedIndex::FindNode(Key key) const {
  Node* n = FindGreaterOrEqual(key, nullptr);
  return (n != nullptr && n->key == key) ? n : nullptr;
}

bool OrderedIndex::UpdateNode(Node* n, RowId row, Timestamp ts, Mode mode) {
  SpinLockGuard guard(n->mu);
  const RowId cur_row = n->row.load(std::memory_order_relaxed);
  switch (mode) {
    case Mode::kKeepExisting:
      if (cur_row != kInvalidRowId) return false;
      break;
    case Mode::kOverwrite:
      break;
    case Mode::kIfNewer:
      // Ties rebind, matching HashIndex::UpsertIfNewer: equal-timestamp
      // records for one key are the same committed write replayed twice.
      if (cur_row != kInvalidRowId &&
          ts < n->ts.load(std::memory_order_relaxed)) {
        return false;
      }
      break;
  }
  n->row.store(row, std::memory_order_release);
  n->ts.store(ts, std::memory_order_release);
  if (cur_row == kInvalidRowId) size_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

bool OrderedIndex::UpsertCommon(Key key, RowId row, Timestamp ts, Mode mode) {
  assert(key <= kMaxUsableKey);
  // Every slot starts at head_: the search fills prev[] only up to the max
  // height IT read, and a concurrent insert may raise the max height before
  // this one links. Levels the search never descended through must then
  // splice after head_ (the full-height sentinel), never after garbage.
  Node* prev[kMaxHeight];
  for (Node*& p : prev) p = head_;
  Node* found = FindGreaterOrEqual(key, prev);
  if (found != nullptr && found->key == key) {
    return UpdateNode(found, row, ts, mode);
  }

  const int height = HeightForKey(key);
  int cur_max = max_height_.load(std::memory_order_relaxed);
  while (height > cur_max) {
    if (max_height_.compare_exchange_weak(cur_max, height,
                                          std::memory_order_acq_rel)) {
      break;
    }
    // cur_max reloaded by the failed CAS; a concurrent raise past `height`
    // is fine — head_ is full-height, so taller searches just see nullptr.
  }
  Node* n = NewNode(key, height);
  n->row.store(row, std::memory_order_relaxed);
  n->ts.store(ts, std::memory_order_relaxed);

  // Link bottom-up. The level-0 CAS is the commit point: losing it to a
  // concurrent insert of the same key abandons this node (its slab memory
  // is reclaimed with the arena) and updates the winner's node instead.
  for (int level = 0; level < height; ++level) {
    while (true) {
      Node* p = prev[level];
      Node* nx = p->next[level].load(std::memory_order_acquire);
      while (nx != nullptr && nx->key < key) {
        p = nx;
        nx = p->next[level].load(std::memory_order_acquire);
      }
      if (nx != nullptr && nx->key == key) {
        // Only reachable at level 0: above it, this thread owns the key
        // (duplicates lose before linking any level).
        assert(level == 0);
        return UpdateNode(nx, row, ts, mode);
      }
      n->next[level].store(nx, std::memory_order_relaxed);
      if (p->next[level].compare_exchange_strong(nx, n,
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed)) {
        break;
      }
      prev[level] = p;  // retry from the deepest node known to precede key
    }
  }
  size_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

bool OrderedIndex::Insert(Key key, RowId row) {
  return UpsertCommon(key, row, /*ts=*/0, Mode::kKeepExisting);
}

void OrderedIndex::Upsert(Key key, RowId row) {
  UpsertCommon(key, row, /*ts=*/0, Mode::kOverwrite);
}

bool OrderedIndex::UpsertIfNewer(Key key, RowId row, Timestamp ts) {
  return UpsertCommon(key, row, ts, Mode::kIfNewer);
}

std::optional<RowId> OrderedIndex::Lookup(Key key) const {
  const Node* n = FindNode(key);
  if (n == nullptr) return std::nullopt;
  const RowId row = n->row.load(std::memory_order_acquire);
  if (row == kInvalidRowId) return std::nullopt;
  return row;
}

std::optional<std::pair<RowId, Timestamp>> OrderedIndex::LookupWithTs(
    Key key) const {
  const Node* n = FindNode(key);
  if (n == nullptr) return std::nullopt;
  const RowId row = n->row.load(std::memory_order_acquire);
  if (row == kInvalidRowId) return std::nullopt;
  return std::make_pair(row, n->ts.load(std::memory_order_acquire));
}

bool OrderedIndex::Erase(Key key) {
  Node* n = FindNode(key);
  if (n == nullptr) return false;
  SpinLockGuard guard(n->mu);
  if (n->row.load(std::memory_order_relaxed) == kInvalidRowId) return false;
  n->row.store(kInvalidRowId, std::memory_order_release);
  n->ts.store(0, std::memory_order_release);
  size_.fetch_sub(1, std::memory_order_acq_rel);
  return true;
}

void OrderedIndex::Reserve(std::size_t expected_keys) {
  // Warm the arena: allocate-and-release enough dummy storage that the slab
  // freelist covers ~expected_keys nodes, so the measured insert phase of a
  // benchmark performs no system allocation. Average node: 1.33 levels.
  const std::size_t node_bytes = sizeof(Node) + sizeof(std::atomic<Node*>) / 2;
  std::size_t total = expected_keys * node_bytes;
  std::vector<std::pair<void*, std::size_t>> warm;
  while (total > 0) {
    const std::size_t chunk =
        total < SlabArena::kMaxAlloc ? total : SlabArena::kMaxAlloc;
    void* p = arena_.Allocate(chunk);
    if (p == nullptr) break;
    warm.emplace_back(p, chunk);
    total -= chunk;
  }
  for (const auto& [p, chunk] : warm) {
    SlabArena::Release(p, chunk);
  }
}

OrderedIndex::Cursor OrderedIndex::Seek(Key lo, Key hi) const {
  if (lo >= hi) return Cursor(nullptr, hi);
  return Cursor(FindGreaterOrEqual(lo, nullptr), hi);
}

void OrderedIndex::ForEach(
    const std::function<void(Key, RowId, Timestamp)>& fn) const {
  for (const Node* n = head_->next[0].load(std::memory_order_acquire);
       n != nullptr; n = n->next[0].load(std::memory_order_acquire)) {
    const RowId row = n->row.load(std::memory_order_acquire);
    if (row == kInvalidRowId) continue;
    fn(n->key, row, n->ts.load(std::memory_order_acquire));
  }
}

}  // namespace c5::index
