#include "index/hash_index.h"

#include <algorithm>
#include <bit>

#include "common/bits.h"

namespace c5::index {

HashIndex::HashIndex(std::size_t initial_capacity_per_shard, int shard_count) {
  shard_count_ = static_cast<int>(NextPow2(
      static_cast<std::size_t>(shard_count < 1 ? 1 : shard_count)));
  shard_shift_ = 64 - std::countr_zero(
                          static_cast<std::uint64_t>(shard_count_));
  shards_ = std::make_unique<Shard[]>(shard_count_);
  const std::size_t cap = NextPow2(initial_capacity_per_shard < 8
                                       ? 8
                                       : initial_capacity_per_shard);
  for (int i = 0; i < shard_count_; ++i) {
    shards_[i].slots.resize(cap);
  }
}

void HashIndex::Shard::Grow() {
  // The fresh array holds no duplicates and no tombstones, so each live slot
  // goes to the first empty slot of its probe sequence: no key compare, no
  // tombstone tracking, no load-factor test.
  std::vector<Slot> old = std::move(slots);
  slots.assign(old.size() * 2, Slot{});
  const std::size_t mask = slots.size() - 1;
  for (const Slot& s : old) {
    if (s.key == kEmpty || s.key == kTombstone) continue;
    std::size_t idx = HashIndex::HashKey(s.key) & mask;
    while (slots[idx].key != kEmpty) idx = (idx + 1) & mask;
    slots[idx] = s;
  }
  occupied = size;
}

bool HashIndex::Shard::InsertLocked(std::uint64_t stored_key, RowId row,
                                    Timestamp ts, Mode mode) {
  if ((occupied + 1) * 4 >= slots.size() * 3) Grow();  // 75% load factor
  const std::size_t mask = slots.size() - 1;
  std::size_t idx = HashIndex::HashKey(stored_key) & mask;
  std::size_t first_tombstone = slots.size();
  while (true) {
    Slot& s = slots[idx];
    if (s.key == stored_key) {
      switch (mode) {
        case Mode::kKeepExisting:
          return false;
        case Mode::kOverwrite:
          break;
        case Mode::kIfNewer:
          if (ts < s.ts) return false;
          break;
      }
      s.row = row;
      s.ts = ts;
      return true;
    }
    if (s.key == kTombstone && first_tombstone == slots.size()) {
      first_tombstone = idx;
    }
    if (s.key == kEmpty) {
      Slot& target =
          first_tombstone != slots.size() ? slots[first_tombstone] : s;
      const bool reused_tombstone = first_tombstone != slots.size();
      target.key = stored_key;
      target.row = row;
      target.ts = ts;
      ++size;
      if (!reused_tombstone) ++occupied;
      return true;
    }
    idx = (idx + 1) & mask;
  }
}

const HashIndex::Shard::Slot* HashIndex::Shard::FindLocked(
    std::uint64_t stored_key) const {
  const std::size_t mask = slots.size() - 1;
  std::size_t idx = HashIndex::HashKey(stored_key) & mask;
  while (true) {
    const Slot& s = slots[idx];
    if (s.key == stored_key) return &s;
    if (s.key == kEmpty) return nullptr;
    idx = (idx + 1) & mask;
  }
}

bool HashIndex::Shard::EraseLocked(std::uint64_t stored_key) {
  const std::size_t mask = slots.size() - 1;
  std::size_t idx = HashIndex::HashKey(stored_key) & mask;
  while (true) {
    Slot& s = slots[idx];
    if (s.key == stored_key) {
      s.key = kTombstone;
      s.row = kInvalidRowId;
      s.ts = 0;
      --size;
      return true;
    }
    if (s.key == kEmpty) return false;
    idx = (idx + 1) & mask;
  }
}

bool HashIndex::Insert(Key key, RowId row) {
  Shard& shard = ShardFor(key);
  SpinLockGuard lock(shard.lock);
  return shard.InsertLocked(key + 2, row, 0, Shard::Mode::kKeepExisting);
}

void HashIndex::Upsert(Key key, RowId row) {
  Shard& shard = ShardFor(key);
  SpinLockGuard lock(shard.lock);
  shard.InsertLocked(key + 2, row, 0, Shard::Mode::kOverwrite);
}

bool HashIndex::UpsertIfNewer(Key key, RowId row, Timestamp ts) {
  Shard& shard = ShardFor(key);
  SpinLockGuard lock(shard.lock);
  return shard.InsertLocked(key + 2, row, ts, Shard::Mode::kIfNewer);
}

std::optional<RowId> HashIndex::Lookup(Key key) const {
  const Shard& shard = ShardFor(key);
  SpinLockGuard lock(shard.lock);
  const Shard::Slot* s = shard.FindLocked(key + 2);
  if (s == nullptr) return std::nullopt;
  return s->row;
}

std::optional<std::pair<RowId, Timestamp>> HashIndex::LookupWithTs(
    Key key) const {
  const Shard& shard = ShardFor(key);
  SpinLockGuard lock(shard.lock);
  const Shard::Slot* s = shard.FindLocked(key + 2);
  if (s == nullptr) return std::nullopt;
  return std::make_pair(s->row, s->ts);
}

bool HashIndex::Erase(Key key) {
  Shard& shard = ShardFor(key);
  SpinLockGuard lock(shard.lock);
  return shard.EraseLocked(key + 2);
}

void HashIndex::ForEach(
    const std::function<void(Key, RowId, Timestamp)>& fn) const {
  for (int i = 0; i < shard_count_; ++i) {
    const Shard& shard = shards_[i];
    SpinLockGuard lock(shard.lock);
    for (const Shard::Slot& slot : shard.slots) {
      if (slot.key != Shard::kEmpty && slot.key != Shard::kTombstone) {
        fn(slot.key - 2, slot.row, slot.ts);
      }
    }
  }
}

void HashIndex::CollectRange(Key lo, Key hi,
                             std::vector<std::pair<Key, RowId>>* out) const {
  for (int i = 0; i < shard_count_; ++i) {
    const Shard& shard = shards_[i];
    SpinLockGuard lock(shard.lock);
    for (const Shard::Slot& slot : shard.slots) {
      if (slot.key == Shard::kEmpty || slot.key == Shard::kTombstone) {
        continue;
      }
      const Key key = slot.key - 2;
      if (key >= lo && key < hi) out->emplace_back(key, slot.row);
    }
  }
  std::sort(out->begin(), out->end());
}

std::size_t HashIndex::Size() const {
  std::size_t total = 0;
  for (int i = 0; i < shard_count_; ++i) {
    SpinLockGuard lock(shards_[i].lock);
    total += shards_[i].size;
  }
  return total;
}

}  // namespace c5::index
