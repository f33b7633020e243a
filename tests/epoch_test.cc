#include "storage/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

namespace c5::storage {
namespace {

std::atomic<int> g_deleted{0};

void CountingDeleter(void* p) {
  g_deleted.fetch_add(1);
  delete static_cast<int*>(p);
}

class EpochTest : public ::testing::Test {
 protected:
  void SetUp() override { g_deleted.store(0); }
};

TEST_F(EpochTest, RetireWithoutReadersFreesOnReclaim) {
  EpochManager mgr;
  mgr.Retire(new int(1), CountingDeleter);
  mgr.Retire(new int(2), CountingDeleter);
  EXPECT_EQ(mgr.RetiredCountApprox(), 2u);
  // First reclaim advances the epoch; with no active readers everything
  // retired below the new epoch is freed.
  mgr.ReclaimSome();
  mgr.ReclaimSome();
  EXPECT_EQ(g_deleted.load(), 2);
  EXPECT_EQ(mgr.RetiredCountApprox(), 0u);
}

TEST_F(EpochTest, ActiveGuardBlocksReclaim) {
  EpochManager mgr;
  {
    auto guard = mgr.Enter();
    mgr.Retire(new int(1), CountingDeleter);
    // The guard pinned the epoch at or below the retire epoch, so the
    // object must survive.
    mgr.ReclaimSome();
    EXPECT_EQ(g_deleted.load(), 0);
  }
  mgr.ReclaimSome();
  EXPECT_EQ(g_deleted.load(), 1);
}

TEST_F(EpochTest, GuardsFromOtherThreadsBlockReclaim) {
  EpochManager mgr;
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    auto guard = mgr.Enter();
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!entered.load()) std::this_thread::yield();

  mgr.Retire(new int(1), CountingDeleter);
  mgr.ReclaimSome();
  EXPECT_EQ(g_deleted.load(), 0);

  release.store(true);
  reader.join();
  mgr.ReclaimSome();
  EXPECT_EQ(g_deleted.load(), 1);
}

TEST_F(EpochTest, NestedGuardsAreSupported) {
  EpochManager mgr;
  auto g1 = mgr.Enter();
  {
    auto g2 = mgr.Enter();
  }
  mgr.Retire(new int(1), CountingDeleter);
  mgr.ReclaimSome();
  EXPECT_EQ(g_deleted.load(), 0);  // outer guard still active
}

// Limbo buckets: a held guard pins the bucket of its epoch and every newer
// one, while older buckets are freed with exact counts.
TEST_F(EpochTest, HeldGuardPinsItsBucketAndFreesOlderOnes) {
  EpochManager mgr;
  std::optional<EpochManager::Guard> older(std::in_place, &mgr);
  mgr.Retire(new int(1), CountingDeleter);
  mgr.Retire(new int(2), CountingDeleter);  // bucket 1: two items
  EXPECT_EQ(mgr.ReclaimSome(), 0u);         // epoch 2; `older` pins bucket 1

  std::optional<EpochManager::Guard> newer(std::in_place, &mgr);
  for (int i = 0; i < 3; ++i) mgr.Retire(new int(i), CountingDeleter);
  EXPECT_EQ(mgr.ReclaimSome(), 0u);  // bucket 2: three items; epoch 3
  mgr.Retire(new int(9), CountingDeleter);  // bucket 3: one item
  EXPECT_EQ(mgr.RetiredCountApprox(), 6u);

  older.reset();
  // The minimum active epoch is now `newer`'s (2): exactly bucket 1 goes.
  EXPECT_EQ(mgr.ReclaimSome(), 2u);
  EXPECT_EQ(g_deleted.load(), 2);
  EXPECT_EQ(mgr.RetiredCountApprox(), 4u);
  EXPECT_EQ(mgr.ReclaimSome(), 0u);  // still pinned: nothing newer moves

  newer.reset();
  EXPECT_EQ(mgr.ReclaimSome(), 4u);
  EXPECT_EQ(g_deleted.load(), 6);
  EXPECT_EQ(mgr.RetiredCountApprox(), 0u);
}

// Batch items count every object their deleter reports, and a bucket is
// freed whole once the guard pinning it goes. A sliding window of guards
// keeps ten buckets live, so the ring grows and wraps around.
TEST_F(EpochTest, BucketsBelowTheMinimumFreeWithExactCounts) {
  EpochManager mgr;
  std::deque<std::unique_ptr<EpochManager::Guard>> window;
  std::size_t freed = 0;
  for (int round = 0; round < 100; ++round) {
    window.push_back(std::make_unique<EpochManager::Guard>(&mgr));
    for (int i = 0; i <= round % 5; ++i) {
      mgr.RetireBatch(new int(i), [](void* p) -> std::size_t {
        CountingDeleter(p);
        return 3;  // stands for a three-version chain
      });
    }
    if (window.size() > 10) window.pop_front();
    freed += mgr.ReclaimSome();  // one new epoch, so one bucket, per round
    EXPECT_LE(mgr.RetiredCountApprox(), 10u * 5u);
  }
  window.clear();
  freed += mgr.ReclaimSome();
  // Rounds retire 1..5 items cyclically: 20 full cycles of 15 items.
  EXPECT_EQ(g_deleted.load(), 300);
  EXPECT_EQ(freed, 900u);
  EXPECT_EQ(mgr.RetiredCountApprox(), 0u);
}

TEST_F(EpochTest, ReclaimAllUnsafeFreesEverything) {
  EpochManager mgr;
  for (int i = 0; i < 10; ++i) mgr.Retire(new int(i), CountingDeleter);
  EXPECT_EQ(mgr.ReclaimAllUnsafe(), 10u);
  EXPECT_EQ(g_deleted.load(), 10);
}

TEST_F(EpochTest, DestructorFreesLeftovers) {
  {
    EpochManager mgr;
    mgr.Retire(new int(1), CountingDeleter);
  }
  EXPECT_EQ(g_deleted.load(), 1);
}

TEST_F(EpochTest, EpochAdvances) {
  EpochManager mgr;
  const auto before = mgr.global_epoch();
  mgr.ReclaimSome();
  EXPECT_GT(mgr.global_epoch(), before);
}

TEST_F(EpochTest, StressManyReadersAndReclaims) {
  EpochManager mgr;
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> retired{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto guard = mgr.Enter();
        std::this_thread::yield();
      }
    });
  }
  std::thread retirer([&] {
    for (int i = 0; i < 20000; ++i) {
      mgr.Retire(new int(i), CountingDeleter);
      retired.fetch_add(1);
      if (i % 256 == 0) mgr.ReclaimSome();
    }
  });
  retirer.join();
  stop.store(true);
  for (auto& r : readers) r.join();
  mgr.ReclaimSome();
  mgr.ReclaimSome();
  EXPECT_EQ(g_deleted.load(), retired.load());
}

}  // namespace
}  // namespace c5::storage
