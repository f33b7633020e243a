// Unit battery for index::OrderedIndex (PR 10): binding semantics shared
// with HashIndex (Insert / Upsert / UpsertIfNewer / Erase), streaming cursor
// boundary cases over the +2-sentinel-compatible keyspace, concurrent
// UpsertIfNewer convergence under shuffled apply orders, and the
// no-rehash contract (readers are never invalidated mid-insert — a skiplist
// has no rehash, and this battery proves iteration stays sane while writers
// run).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/ordered_index.h"

namespace c5::index {
namespace {

TEST(OrderedIndexTest, InsertLookupEraseReinsert) {
  OrderedIndex idx;
  EXPECT_EQ(idx.Size(), 0u);
  EXPECT_TRUE(idx.Insert(42, 7));
  EXPECT_FALSE(idx.Insert(42, 8)) << "live key must not rebind via Insert";
  EXPECT_EQ(idx.Lookup(42).value(), 7u);
  EXPECT_EQ(idx.Size(), 1u);

  EXPECT_TRUE(idx.Erase(42));
  EXPECT_FALSE(idx.Erase(42)) << "double erase";
  EXPECT_FALSE(idx.Lookup(42).has_value());
  EXPECT_EQ(idx.Size(), 0u);

  // Re-insert after erase re-binds (revives the logically-erased node).
  EXPECT_TRUE(idx.Insert(42, 9));
  EXPECT_EQ(idx.Lookup(42).value(), 9u);
  EXPECT_EQ(idx.Size(), 1u);

  idx.Upsert(42, 11);
  EXPECT_EQ(idx.Lookup(42).value(), 11u);
  EXPECT_FALSE(idx.Erase(999)) << "absent key";
}

TEST(OrderedIndexTest, UpsertIfNewerKeepsNewestBinding) {
  OrderedIndex idx;
  EXPECT_TRUE(idx.UpsertIfNewer(5, 100, 10));
  EXPECT_FALSE(idx.UpsertIfNewer(5, 50, 9)) << "older ts must not rebind";
  EXPECT_EQ(idx.Lookup(5).value(), 100u);
  // Ties rebind (same committed write replayed twice), as in HashIndex.
  EXPECT_TRUE(idx.UpsertIfNewer(5, 100, 10));
  EXPECT_TRUE(idx.UpsertIfNewer(5, 200, 11));
  EXPECT_EQ(idx.LookupWithTs(5)->first, 200u);
  EXPECT_EQ(idx.LookupWithTs(5)->second, 11u);
  // Erase clears the timestamp too: any later bind lands.
  EXPECT_TRUE(idx.Erase(5));
  EXPECT_TRUE(idx.UpsertIfNewer(5, 300, 1));
  EXPECT_EQ(idx.Lookup(5).value(), 300u);
}

TEST(OrderedIndexTest, SeekBoundaryCases) {
  OrderedIndex idx;
  const Key top = OrderedIndex::kMaxUsableKey;  // 2^64 - 3
  // Keys 0 and 1 collide with the hash index's kEmpty/kTombstone sentinels
  // unless offset; the ordered index must serve them verbatim, and the top
  // usable key must come back from an unbounded-hi scan without wrapping.
  for (const Key k : {Key{0}, Key{1}, Key{5}, top}) {
    ASSERT_TRUE(idx.Insert(k, k + 1000));
  }

  // Full-space scan returns everything, ascending, key 0 first.
  std::vector<Key> got;
  for (auto c = idx.Seek(0, ~Key{0}); c.Valid(); c.Next()) {
    got.push_back(c.key());
  }
  EXPECT_EQ(got, (std::vector<Key>{0, 1, 5, top}));

  // lo == hi is empty, even at 0 and at the extremes.
  EXPECT_FALSE(idx.Seek(0, 0).Valid());
  EXPECT_FALSE(idx.Seek(5, 5).Valid());
  EXPECT_FALSE(idx.Seek(~Key{0}, ~Key{0}).Valid());

  // hi is exclusive: [0, 1) sees only key 0.
  auto c01 = idx.Seek(0, 1);
  ASSERT_TRUE(c01.Valid());
  EXPECT_EQ(c01.key(), 0u);
  EXPECT_EQ(c01.row(), 1000u);
  c01.Next();
  EXPECT_FALSE(c01.Valid());

  // A narrow band at the very top does not wrap around.
  auto ctop = idx.Seek(top, ~Key{0});
  ASSERT_TRUE(ctop.Valid());
  EXPECT_EQ(ctop.key(), top);
  ctop.Next();
  EXPECT_FALSE(ctop.Valid());

  // Erased keys are skipped by a live cursor's Settle.
  ASSERT_TRUE(idx.Erase(1));
  got.clear();
  for (auto c = idx.Seek(0, ~Key{0}); c.Valid(); c.Next()) {
    got.push_back(c.key());
  }
  EXPECT_EQ(got, (std::vector<Key>{0, 5, top}));
}

TEST(OrderedIndexTest, ForEachAscendingAndLive) {
  OrderedIndex idx;
  Rng rng(42);
  std::vector<Key> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(rng.Next() % 100000);
  for (const Key k : keys) idx.Insert(k, k);
  std::vector<Key> seen;
  idx.ForEach([&](Key k, RowId r, Timestamp) {
    EXPECT_EQ(k, r);
    seen.push_back(k);
  });
  std::vector<Key> want(keys);
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  EXPECT_EQ(seen, want);
  EXPECT_EQ(idx.Size(), want.size());
}

// The tentpole invariant: parallel replay workers applying the records of a
// key's successive incarnations in ANY order converge to the newest row.
// Each worker applies the same (row, ts) set in its own shuffled order.
TEST(OrderedIndexTest, ConcurrentUpsertIfNewerConvergesUnderShuffle) {
  constexpr int kKeys = 512;
  constexpr int kIncarnations = 8;
  constexpr int kThreads = 8;
  OrderedIndex idx;
  std::atomic<int> start{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x9000 + static_cast<std::uint64_t>(t));
      start.fetch_add(1);
      while (start.load() < kThreads) {
      }
      std::vector<int> order(kIncarnations);
      for (int i = 0; i < kIncarnations; ++i) order[i] = i;
      for (int k = 0; k < kKeys; ++k) {
        for (int i = kIncarnations - 1; i > 0; --i) {
          std::swap(order[i],
                    order[static_cast<int>(rng.Next() % (i + 1))]);
        }
        for (const int inc : order) {
          // Incarnation `inc` of key k lives on row k*kIncarnations+inc and
          // was created at ts inc+1.
          idx.UpsertIfNewer(static_cast<Key>(k),
                            static_cast<RowId>(k * kIncarnations + inc),
                            static_cast<Timestamp>(inc + 1));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int k = 0; k < kKeys; ++k) {
    const auto bound = idx.LookupWithTs(static_cast<Key>(k));
    ASSERT_TRUE(bound.has_value());
    EXPECT_EQ(bound->first,
              static_cast<RowId>(k * kIncarnations + kIncarnations - 1))
        << "key " << k << " did not converge to the newest incarnation";
    EXPECT_EQ(bound->second, static_cast<Timestamp>(kIncarnations));
  }
  EXPECT_EQ(idx.Size(), static_cast<std::size_t>(kKeys));
}

// Concurrent racing inserts of DISTINCT fresh keys while a reader iterates:
// the reader must only ever see a sane ascending sequence (no torn nodes,
// no cycles), and after the dust settles every key is present exactly once.
TEST(OrderedIndexTest, ConcurrentInsertsWithLiveReaders) {
  constexpr int kThreads = 4;
  constexpr Key kPerThread = 4000;
  OrderedIndex idx;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      Key prev = 0;
      bool first = true;
      for (auto c = idx.Seek(0, ~Key{0}); c.Valid(); c.Next()) {
        if (!first) {
          ASSERT_GT(c.key(), prev);
        }
        first = false;
        prev = c.key();
        ASSERT_NE(c.row(), kInvalidRowId);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Interleaved key ranges so neighboring splices race across threads.
      for (Key i = 0; i < kPerThread; ++i) {
        const Key key = i * kThreads + static_cast<Key>(t);
        ASSERT_TRUE(idx.Insert(key, key * 2));
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(idx.Size(), static_cast<std::size_t>(kThreads) * kPerThread);
  Key expect = 0;
  for (auto c = idx.Seek(0, ~Key{0}); c.Valid(); c.Next()) {
    EXPECT_EQ(c.key(), expect);
    EXPECT_EQ(c.row(), expect * 2);
    ++expect;
  }
  EXPECT_EQ(expect, static_cast<Key>(kThreads) * kPerThread);
}

// Racing inserts of the SAME key must resolve to exactly one binding (the
// level-0 CAS is the commit point; losers degrade to an update attempt that
// Insert-mode rejects).
TEST(OrderedIndexTest, RacingSameKeyInsertsResolveToOneWinner) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  OrderedIndex idx;
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        if (idx.Insert(static_cast<Key>(r),
                       static_cast<RowId>(t * kRounds + r))) {
          winners.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), kRounds) << "each key must have ONE winner";
  EXPECT_EQ(idx.Size(), static_cast<std::size_t>(kRounds));
  // Every bound row must be one some thread actually proposed for that key.
  for (int r = 0; r < kRounds; ++r) {
    const auto row = idx.Lookup(static_cast<Key>(r));
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(*row % kRounds, static_cast<RowId>(r));
  }
}

// Tower height of `key`, mirroring OrderedIndex::HeightForKey (2 bits of a
// SplitMix64-style hash per level; the 20-level cap is never reached here).
// The test needs keys of chosen heights to make the max-height race likely.
int TowerHeight(Key key) {
  std::uint64_t h = key + 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  int height = 1;
  while ((h & 3) == 0) {
    ++height;
    h >>= 2;
  }
  return height;
}

// Fills a stretch of the caller's stack with a wild-pointer pattern, so an
// uninitialized local in the NEXT call at this depth reads garbage instead
// of whatever the previous call happened to leave there.
[[gnu::noinline]] void ScribbleStack() {
  volatile unsigned char junk[8192];
  for (std::size_t i = 0; i < sizeof(junk); ++i) junk[i] = 0xA5;
}

// Regression: writers racing to raise the tower height. An insert whose
// search read max height h, while a peer raised it to h' before this insert
// raised it further, used to leave prev[h .. h') uninitialized and link
// through stack garbage (a crash, or a node spliced after a wild
// predecessor). Each round starts from a fresh index whose only nodes are
// height 1, then every thread climbs through heights 2..kLevels. Each
// step's keys sort below every earlier step's keys (and above the
// preload), so every climbing search walks the whole level-0 list: the
// window between reading the max height and raising it stays wide.
TEST(OrderedIndexTest, ConcurrentTowerHeightRaisesLinkEveryLevel) {
  constexpr int kThreads = 4;
  constexpr int kLevels = 7;
  constexpr int kRounds = 150;
  constexpr std::size_t kFlat = 2000;
  constexpr std::size_t kPerStep = std::size_t{kThreads} * kRounds;
  // First `n` keys of height `h` at or above `base`.
  const auto keys_of_height = [](int h, Key base, std::size_t n) {
    std::vector<Key> out;
    for (Key k = base; out.size() < n; ++k) {
      if (TowerHeight(k) == h) out.push_back(k);
    }
    return out;
  };
  const std::vector<Key> flat = keys_of_height(1, 0, kFlat);
  std::vector<std::vector<Key>> steps;  // steps[s]: height s + 2
  for (int h = 2; h <= kLevels; ++h) {
    steps.push_back(
        keys_of_height(h, static_cast<Key>(kLevels + 2 - h) << 40, kPerStep));
  }
  const std::size_t total = kFlat + std::size_t{kThreads} * steps.size();
  for (int round = 0; round < kRounds; ++round) {
    OrderedIndex idx;
    for (const Key key : flat) idx.Insert(key, static_cast<RowId>(key));
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (ready.load(std::memory_order_acquire) < kThreads) {
        }
        for (const std::vector<Key>& step : steps) {
          const Key key = step[round * kThreads + t];
          ScribbleStack();
          idx.Insert(key, static_cast<RowId>(key));
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(idx.Size(), total);
    std::size_t seen = 0;
    Key prev = 0;
    for (auto c = idx.Seek(0, ~Key{0}); c.Valid(); c.Next()) {
      if (seen > 0) {
        ASSERT_GT(c.key(), prev) << "round " << round;
      }
      prev = c.key();
      ++seen;
    }
    ASSERT_EQ(seen, total) << "round " << round;
    for (const std::vector<Key>& step : steps) {
      for (int t = 0; t < kThreads; ++t) {
        const Key key = step[round * kThreads + t];
        ASSERT_EQ(idx.Lookup(key).value_or(kInvalidRowId),
                  static_cast<RowId>(key))
            << "round " << round << " key " << key;
      }
    }
  }
}

}  // namespace
}  // namespace c5::index
