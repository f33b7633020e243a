#include "replica/prefix_tracker.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace c5::replica {
namespace {

TEST(PrefixTrackerTest, InOrderMarksAdvanceImmediately) {
  PrefixTracker pt(64);
  pt.Mark(0, 10);
  EXPECT_EQ(pt.Advance(), 10u);
  pt.Mark(1, 20);
  pt.Mark(2, 30);
  EXPECT_EQ(pt.Advance(), 30u);
  EXPECT_EQ(pt.watermark(), 3u);
}

TEST(PrefixTrackerTest, GapBlocksWatermark) {
  PrefixTracker pt(64);
  pt.Mark(0, 10);
  pt.Mark(2, 30);  // gap at 1
  EXPECT_EQ(pt.Advance(), 10u);
  EXPECT_EQ(pt.watermark(), 1u);
  pt.Mark(1, 20);
  EXPECT_EQ(pt.Advance(), 30u);  // 1 and 2 both advance
  EXPECT_EQ(pt.watermark(), 3u);
}

TEST(PrefixTrackerTest, VisibilityOnlyAtTxnEnds) {
  PrefixTracker pt(64);
  // Records 0,1 belong to txn ts=7 (end at 1); record 2 is txn ts=9.
  pt.Mark(0, kInvalidTimestamp);
  EXPECT_EQ(pt.Advance(), kInvalidTimestamp);  // no complete txn yet
  pt.Mark(1, 7);
  EXPECT_EQ(pt.Advance(), 7u);
  pt.Mark(2, 9);
  EXPECT_EQ(pt.Advance(), 9u);
}

TEST(PrefixTrackerTest, VisibleTimestampIsMonotonic) {
  PrefixTracker pt(64);
  pt.Mark(1, 20);
  pt.Mark(2, 30);
  EXPECT_EQ(pt.Advance(), kInvalidTimestamp);  // 0 missing
  pt.Mark(0, 10);
  EXPECT_EQ(pt.Advance(), 30u);
  EXPECT_EQ(pt.visible_ts(), 30u);
}

TEST(PrefixTrackerTest, WrapsAroundRing) {
  PrefixTracker pt(8);
  Timestamp vis = 0;
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    pt.Mark(seq, seq + 1);
    vis = pt.Advance();
  }
  EXPECT_EQ(vis, 100u);
  EXPECT_EQ(pt.watermark(), 100u);
}

TEST(PrefixTrackerTest, HasRoomReleasesAfterAdvance) {
  PrefixTracker pt(8);  // tiny ring
  EXPECT_TRUE(pt.HasRoom(8));
  EXPECT_FALSE(pt.HasRoom(9));  // index 8 is exactly capacity ahead
  pt.Mark(0, 1);
  EXPECT_FALSE(pt.HasRoom(9));  // marked, but its slot is not yet free
  pt.Advance();                 // watermark -> 1 frees slot 0
  EXPECT_TRUE(pt.HasRoom(9));
  pt.Mark(8, 9);
  EXPECT_EQ(pt.Advance(), 1u);  // 1..7 still unmarked
}

TEST(PrefixTrackerTest, ConcurrentMarkersSingleAdvancer) {
  PrefixTracker pt(1 << 12);
  constexpr std::uint64_t kN = 200000;
  constexpr int kThreads = 4;
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> markers;
  for (int t = 0; t < kThreads; ++t) {
    markers.emplace_back([&] {
      while (true) {
        const std::uint64_t seq = next.fetch_add(1);
        if (seq >= kN) break;
        // Hand out an index only once it fits (the numbering contract);
        // the advancer frees room.
        while (!pt.HasRoom(seq + 1)) std::this_thread::yield();
        pt.Mark(seq, seq + 1);
      }
    });
  }
  std::thread advancer([&] {
    while (!done.load()) pt.Advance();
    pt.Advance();
  });
  for (auto& m : markers) m.join();
  done.store(true);
  advancer.join();
  EXPECT_EQ(pt.watermark(), kN);
  EXPECT_EQ(pt.visible_ts(), kN);
}

TEST(PrefixTrackerTest, RandomCompletionOrderReachesFullPrefix) {
  PrefixTracker pt(1 << 10);
  constexpr std::uint64_t kN = 512;  // within ring capacity: any order works
  std::vector<std::uint64_t> order(kN);
  for (std::uint64_t i = 0; i < kN; ++i) order[i] = i;
  Rng rng(test::TestSeed(3));
  for (std::uint64_t i = kN - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  Timestamp vis = 0;
  std::uint64_t max_marked = 0;
  for (const std::uint64_t seq : order) {
    max_marked = std::max(max_marked, seq);
    pt.Mark(seq, seq + 1);
    const Timestamp next = pt.Advance();
    EXPECT_GE(next, vis);              // monotonic
    EXPECT_LE(next, max_marked + 1);   // never beyond what was marked
    vis = next;
  }
  EXPECT_EQ(vis, kN);
}

TEST(PrefixTrackerTest, AdvanceIdempotentWhenNoNewMarks) {
  PrefixTracker pt(64);
  pt.Mark(0, 5);
  EXPECT_EQ(pt.Advance(), 5u);
  EXPECT_EQ(pt.Advance(), 5u);
  EXPECT_EQ(pt.Advance(), 5u);
}

}  // namespace
}  // namespace c5::replica
