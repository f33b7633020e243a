// SlabArena / VersionArena coverage: slab recycling, reuse-after-retire
// through the epoch manager, free-list block reuse under random lifetimes,
// cross-epoch safety under concurrent readers, and the heap-fallback path.
// Run under -DC5_SANITIZE=address these tests also exercise the arena's
// poisoning (a use-after-retire inside a slab, or of a block waiting on a
// free list, faults like a heap use-after-free).

#include "common/arena.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/epoch.h"
#include "storage/table.h"
#include "storage/version.h"
#include "storage/version_arena.h"
#include "tests/test_util.h"

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#include <sanitizer/asan_interface.h>
#define C5_TEST_ASAN 1
#else
#define C5_TEST_ASAN 0
#endif

namespace c5 {
namespace {

TEST(SlabArenaTest, AllocationsAreDistinctAndWritable) {
  SlabArena arena;
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) {
    void* p = arena.Allocate(64);
    ASSERT_NE(p, nullptr);
    std::memset(p, i, 64);
    ptrs.push_back(p);
  }
  for (int i = 0; i < 100; ++i) {
    for (int b = 0; b < 64; ++b) {
      ASSERT_EQ(static_cast<unsigned char*>(ptrs[i])[b], i);
    }
  }
  for (void* p : ptrs) SlabArena::Release(p, 64);
}

TEST(SlabArenaTest, OversizedAllocationReturnsNull) {
  SlabArena arena;
  EXPECT_EQ(arena.Allocate(SlabArena::kMaxAlloc + 1), nullptr);
  EXPECT_EQ(arena.Allocate(0), nullptr);
  void* p = arena.Allocate(SlabArena::kMaxAlloc);
  ASSERT_NE(p, nullptr);
  SlabArena::Release(p, SlabArena::kMaxAlloc);
}

TEST(SlabArenaTest, FullyReleasedSealedSlabIsRecycled) {
  SlabArena arena(/*shards=*/1);
  constexpr std::size_t kObj = 1024;
  const std::size_t per_slab =
      (SlabArena::kSlabBytes - SlabArena::kHeaderBytes) / kObj;

  // Fill and seal several slabs, releasing everything as we go.
  std::vector<void*> live;
  for (std::size_t i = 0; i < per_slab * 4; ++i) {
    void* p = arena.Allocate(kObj);
    ASSERT_NE(p, nullptr);
    live.push_back(p);
  }
  for (void* p : live) SlabArena::Release(p, kObj);
  live.clear();

  // Sealed slabs (all but the current one) are fully released -> recyclable.
  const std::uint64_t allocated_before = arena.SlabsAllocated();
  EXPECT_GE(allocated_before, 4u);
  for (std::size_t i = 0; i < per_slab * 4; ++i) {
    void* p = arena.Allocate(kObj);
    ASSERT_NE(p, nullptr);
    live.push_back(p);
  }
  // Steady state: the second wave reuses the first wave's slabs instead of
  // growing the footprint linearly.
  EXPECT_GE(arena.SlabsRecycled(), 3u);
  EXPECT_LE(arena.SlabsAllocated(), allocated_before + 1);
  for (void* p : live) SlabArena::Release(p, kObj);
}

TEST(SlabArenaTest, ConcurrentAllocateReleaseKeepsPayloadsIntact) {
  SlabArena arena;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters && !failed.load(); ++i) {
        const std::size_t n = 16 + (i % 7) * 24;
        auto* p = static_cast<unsigned char*>(arena.Allocate(n));
        if (p == nullptr) {
          failed.store(true);
          return;
        }
        std::memset(p, t * 16 + 1, n);
        for (std::size_t b = 0; b < n; ++b) {
          if (p[b] != t * 16 + 1) {
            failed.store(true);
            return;
          }
        }
        SlabArena::Release(p, n);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
}

TEST(VersionArenaTest, CreateInlinesPayloadAndStatus) {
  storage::VersionArena arena;
  const std::string payload(64, 'p');
  storage::Version* v = arena.Create(42, payload, /*is_delete=*/false,
                                     storage::VersionStatus::kCommitted);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->write_ts, 42u);
  EXPECT_EQ(v->value(), payload);
  EXPECT_FALSE(v->heap);
  EXPECT_EQ(v->Status(), storage::VersionStatus::kCommitted);
  EXPECT_EQ(arena.HeapFallbacks(), 0u);
  storage::FreeVersion(v);
}

TEST(VersionArenaTest, OversizedPayloadFallsBackToHeap) {
  storage::VersionArena arena;
  const std::string huge(SlabArena::kMaxAlloc + 1, 'h');
  storage::Version* v = arena.Create(7, huge, /*is_delete=*/false,
                                     storage::VersionStatus::kPending);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->heap);
  EXPECT_EQ(v->value(), huge);
  EXPECT_EQ(arena.HeapFallbacks(), 1u);
  storage::FreeVersion(v);
}

TEST(VersionArenaTest, ReuseAfterRetireThroughEpochManager) {
  // The steady-state loop the replay path runs: install, truncate via GC,
  // reclaim past the grace period, repeat. The arena footprint must stay
  // bounded by the live set, proving retired slabs really are reused.
  storage::Table table("t");
  storage::EpochManager epochs;
  const RowId row = table.AllocateRow();
  const std::string payload(64, 'x');
  Timestamp ts = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 2000; ++i) {
      table.InstallCommitted(row, ++ts, payload);
    }
    table.CollectRowGarbage(row, ts - 1, epochs);
    epochs.ReclaimSome();
    epochs.ReclaimSome();
  }
  // 100k versions of ~96 bytes passed through; live set is ~2k versions
  // (~4 slabs). Without slab reuse this would be ~150 slabs.
  EXPECT_LT(table.arena().slabs().SlabsAllocated(), 24u);
  EXPECT_GT(table.arena().slabs().SlabsRecycled(), 0u);
}

TEST(VersionArenaTest, RandomUpdatesKeepTheArenaNearTheLiveSet) {
  // Many rows, uniform random updates, GC and reclaim every 512 writes (a
  // backup's cadence at 160k writes/s): lifetimes are random, so nearly
  // every slab keeps a live version. Whole-slab recycling alone holds ~6.8x
  // the live set here; the free lists hand each reclaimed block to the next
  // version of its size.
  constexpr RowId kRows = 20000;
  constexpr std::uint64_t kWritesPerRow = 10;
  constexpr std::uint64_t kGcEvery = 512;
  storage::Table table("t");
  storage::EpochManager epochs;
  const std::string payload(100, 'u');
  Timestamp ts = 0;
  for (RowId r = 0; r < kRows; ++r) {
    table.InstallCommitted(table.AllocateRow(), ++ts, payload);
  }
  Rng rng(test::TestSeed(25));
  for (std::uint64_t i = 1; i <= kRows * kWritesPerRow; ++i) {
    table.InstallCommitted(rng.Uniform(kRows), ++ts, payload);
    if (i % kGcEvery == 0) {
      table.CollectGarbage(ts, epochs);
      epochs.ReclaimSome();
    }
  }
  const std::size_t block = (sizeof(storage::Version) + payload.size() + 7) &
                            ~std::size_t{7};
  const std::size_t live_bytes = table.CountVersionsApprox() * block;
  EXPECT_LE(table.arena().slabs().BytesReserved(), 2 * live_bytes)
      << "arena " << table.arena().slabs().BytesReserved() << " B for "
      << live_bytes << " live B";
  EXPECT_GT(table.arena().slabs().BlocksReused(), 0u);
}

TEST(VersionArenaTest, BacklogReclaimedInOnePassIsReused) {
  // A held-back horizon (a long snapshot reader, a Rebalance export pin)
  // lets thousands of versions pile up, and the pass after it reclaims them
  // all at once, far more than one list would hold if the lists were
  // capped. Every reclaimed block must stay reusable: the arena stays near
  // the peak live set (rows + one round's backlog) however many rounds run.
  constexpr RowId kRows = 4000;
  constexpr std::uint64_t kBacklog = 8000;
  constexpr int kRounds = 20;
  storage::Table table("t");
  storage::EpochManager epochs;
  const std::string payload(100, 'b');
  Timestamp ts = 0;
  for (RowId r = 0; r < kRows; ++r) {
    table.InstallCommitted(table.AllocateRow(), ++ts, payload);
  }
  Rng rng(test::TestSeed(26));
  for (int round = 0; round < kRounds; ++round) {
    for (std::uint64_t i = 0; i < kBacklog; ++i) {
      table.InstallCommitted(rng.Uniform(kRows), ++ts, payload);
    }
    table.CollectGarbage(ts, epochs);
    ASSERT_EQ(epochs.ReclaimSome(), kBacklog) << "round " << round;
  }
  const std::size_t block = (sizeof(storage::Version) + payload.size() + 7) &
                            ~std::size_t{7};
  const std::size_t peak_live_bytes = (kRows + kBacklog) * block;
  EXPECT_LE(table.arena().slabs().BytesReserved(), 2 * peak_live_bytes)
      << "arena " << table.arena().slabs().BytesReserved() << " B for "
      << peak_live_bytes << " peak live B";
  EXPECT_GE(table.arena().slabs().BlocksReused(),
            (kRounds - 1) * kBacklog);
}

TEST(VersionArenaTest, ListedBlocksArePoisonedUntilReused) {
  // A reclaimed version's block waits on its size's free list fully
  // poisoned (the list is a vector of pointers: nothing is written into the
  // block), and the next version of that size takes it back unpoisoned.
  storage::Table table("t");
  storage::EpochManager epochs;
  const RowId row = table.AllocateRow();
  const std::string payload(40, 'p');
  const storage::Version* old = table.InstallCommitted(row, 1, payload);
  table.InstallCommitted(row, 2, payload);
  const std::size_t bytes = old->AllocBytes();
  ASSERT_EQ(table.CollectRowGarbage(row, 2, epochs), 1u);
#if C5_TEST_ASAN
  // Retired but inside its grace period: still readable.
  EXPECT_EQ(__asan_region_is_poisoned(const_cast<storage::Version*>(old),
                                      bytes),
            nullptr);
#endif
  ASSERT_EQ(epochs.ReclaimSome(), 1u);
#if C5_TEST_ASAN
  auto* first = reinterpret_cast<const char*>(old);
  EXPECT_TRUE(__asan_address_is_poisoned(first));
  EXPECT_TRUE(__asan_address_is_poisoned(first + bytes - 1));
#endif
  const storage::Version* reused = table.InstallCommitted(row, 3, payload);
  EXPECT_EQ(reused, old) << "the listed block was not reused";
  EXPECT_EQ(table.arena().slabs().BlocksReused(), 1u);
  EXPECT_EQ(reused->value(), payload);
#if C5_TEST_ASAN
  EXPECT_EQ(__asan_region_is_poisoned(const_cast<storage::Version*>(reused),
                                      bytes),
            nullptr);
#endif
  (void)bytes;
}

TEST(VersionArenaTest, CrossEpochSafetyUnderConcurrentReaders) {
  // Readers traverse chains while GC retires tails; epoch reclamation delays
  // slab release until readers exit. Under ASan, premature reuse of slab
  // memory trips the arena poisoning.
  storage::Table table("t");
  storage::EpochManager epochs;
  const RowId row = table.AllocateRow();
  const std::string payload(48, 'r');
  table.InstallCommitted(row, 1, payload);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto guard = epochs.Enter();
        const storage::Version* v = table.ReadAt(row, kMaxTimestamp);
        ASSERT_NE(v, nullptr);
        ASSERT_EQ(v->value().size(), payload.size());
        ASSERT_EQ(v->value()[0], 'r');
      }
    });
  }
  Timestamp ts = 1;
  for (int round = 0; round < 300; ++round) {
    for (int i = 0; i < 50; ++i) table.InstallCommitted(row, ++ts, payload);
    table.CollectRowGarbage(row, ts - 1, epochs);
    epochs.ReclaimSome();
  }
  stop.store(true);
  for (auto& r : readers) r.join();
  // Final trim at the full horizon (ts-1 above kept the horizon version AND
  // the head), then drain the retirement queue.
  table.CollectRowGarbage(row, ts, epochs);
  epochs.ReclaimSome();
  epochs.ReclaimSome();
  EXPECT_EQ(table.CountVersionsApprox(), 1u);
}

TEST(EpochBatchTest, ReclaimReportsExactBatchCounts) {
  // RetireBatch counts every object its deleter frees; Retire counts one.
  storage::Table table("t");
  storage::EpochManager epochs;
  const RowId row = table.AllocateRow();
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    table.InstallCommitted(row, ts, "v");
  }
  ASSERT_EQ(table.CollectRowGarbage(row, 10, epochs), 1u);  // one chain
  // 9 versions below the newest committed at horizon 10 are in the batch.
  EXPECT_EQ(epochs.ReclaimSome() + epochs.ReclaimSome(), 9u);
  EXPECT_EQ(table.CountVersionsApprox(), 1u);
}

}  // namespace
}  // namespace c5
