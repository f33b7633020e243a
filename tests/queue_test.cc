#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "common/event_count.h"
#include "common/mpmc_queue.h"
#include "common/spsc_queue.h"

namespace c5 {
namespace {

TEST(SpscQueueTest, PushPopSingleThread) {
  SpscQueue<int> q(8);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_EQ(q.TryPop().value(), 1);
  EXPECT_EQ(q.TryPop().value(), 2);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(SpscQueueTest, FullQueueRejectsTryPush) {
  SpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));
  EXPECT_EQ(q.SizeApprox(), 4u);
}

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  SpscQueue<int> q(5);  // becomes 8
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(8));
}

TEST(SpscQueueTest, PopDrainsAfterClose) {
  SpscQueue<int> q(8);
  q.TryPush(1);
  q.TryPush(2);
  q.Close();
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(SpscQueueTest, PushFailsAfterCloseWhenFull) {
  SpscQueue<int> q(2);
  q.TryPush(1);
  q.TryPush(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));  // full + closed: must not block forever
}

TEST(SpscQueueTest, ConcurrentTransferPreservesOrderAndContent) {
  SpscQueue<int> q(64);
  constexpr int kItems = 200000;
  std::vector<int> received;
  received.reserve(kItems);

  std::thread consumer([&] {
    while (auto v = q.Pop()) received.push_back(*v);
  });
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(q.Push(i));
  q.Close();
  consumer.join();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) ASSERT_EQ(received[i], i);
}

TEST(MpmcQueueTest, PushPopBasic) {
  MpmcQueue<int> q;
  q.Push(7);
  EXPECT_EQ(q.Pop().value(), 7);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(MpmcQueueTest, FifoOrderSingleThread) {
  MpmcQueue<int> q;
  for (int i = 0; i < 10; ++i) q.Push(i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.Pop().value(), i);
}

TEST(MpmcQueueTest, CloseUnblocksPoppers) {
  MpmcQueue<int> q;
  std::thread t([&] { EXPECT_FALSE(q.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  t.join();
}

TEST(MpmcQueueTest, DrainsAfterClose) {
  MpmcQueue<int> q;
  q.Push(1);
  q.Close();
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpmcQueueTest, ManyProducersManyConsumers) {
  MpmcQueue<int> q;
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 50000;
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.Close();
  for (int c = kProducers; c < kProducers + kConsumers; ++c) {
    threads[c].join();
  }

  const std::int64_t n = static_cast<std::int64_t>(kProducers) * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(MpmcQueueTest, TryPopOnEmptyAndClosedQueues) {
  MpmcQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
  q.Push(3);
  q.Close();
  EXPECT_EQ(q.TryPop().value(), 3);  // closing keeps what is queued
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(MpmcQueueTest, PushAllWakesParkedConsumersAndDeliversEachItemOnce) {
  MpmcQueue<int> q;
  constexpr int kConsumers = 3, kItems = 1000;
  std::vector<std::vector<int>> got(kConsumers);
  std::atomic<int> popped{0};
  // Each consumer holds after its first item until every consumer has one.
  // Only a wake-all lets all of them take an item before Close(): a single
  // woken consumer would hold while the others stay parked.
  std::atomic<int> first_items{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      while (auto v = q.Pop()) {
        got[c].push_back(*v);
        popped.fetch_add(1);
        if (got[c].size() == 1) {
          first_items.fetch_add(1);
          while (first_items.load() < kConsumers && !release.load()) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        }
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto wait_until = [&](auto done) {
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  // On failure, unblock and join every consumer before reporting.
  auto finish = [&] {
    release.store(true);
    q.Close();
    for (std::thread& t : consumers) t.join();
  };

  // Every consumer spends its spin budget and parks before the push.
  if (!wait_until([&] { return q.Parked() == kConsumers; })) {
    const int parked = q.Parked();
    finish();
    FAIL() << "only " << parked << " of " << kConsumers << " parked";
  }
  std::vector<int> items(kItems);
  std::iota(items.begin(), items.end(), 0);
  q.PushAll(items);
  // PushAll alone must wake them all: the queue is not closed yet.
  if (!wait_until([&] { return first_items.load() == kConsumers; })) {
    const int woken = first_items.load();
    finish();
    FAIL() << "PushAll woke " << woken << " of " << kConsumers
           << " parked consumers";
  }
  if (!wait_until([&] { return popped.load() == kItems; })) {
    const int delivered = popped.load();
    finish();
    FAIL() << "PushAll delivered " << delivered << " of " << kItems;
  }
  finish();  // every consumer's next Pop returns nullopt, so all exit

  std::vector<int> all;
  for (const std::vector<int>& g : got) {
    all.insert(all.end(), g.begin(), g.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, items);
  EXPECT_FALSE(q.TryPop().has_value());
}

// Polls `done`, yielding between polls, for up to 30 s; false on timeout.
template <typename Done>
bool WaitFor(Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// The waiter announces itself, the notifier's state change and Notify()
// land before the waiter parks, and the park must return at once: the
// notification advanced the key it parks on.
TEST(EventCountTest, NotifyBetweenPrepareAndWaitIsNeverLost) {
  EventCount ev;
  constexpr int kRounds = 2000;
  std::atomic<int> prepared{-1};
  std::atomic<int> notified{-1};
  std::atomic<int> woken{-1};
  std::atomic<bool> abort{false};
  std::thread waiter([&] {
    for (int r = 0; r < kRounds && !abort.load(); ++r) {
      const EventCount::Key key = ev.PrepareWait();
      prepared.store(r);
      while (notified.load() < r && !abort.load()) std::this_thread::yield();
      ev.Wait(key);
      woken.store(r);
    }
  });
  bool ok = true;
  for (int r = 0; r < kRounds && ok; ++r) {
    ok = WaitFor([&] { return prepared.load() >= r; });
    ev.Notify();
    notified.store(r);
    ok = ok && WaitFor([&] { return woken.load() >= r; });
  }
  if (!ok) {
    // Unblock and join the waiter before reporting.
    abort.store(true);
    while (woken.load() < prepared.load()) ev.NotifyAll();
  }
  waiter.join();
  EXPECT_TRUE(ok) << "a notify before the park was lost after round "
                  << woken.load();
  EXPECT_EQ(ev.Waiters(), 0);
}

// Park() re-checks its predicate after announcing itself: a notifier that
// changes the state after the waiter's first check, but before the waiter
// announced itself, finds nobody waiting, and the re-check is what sees it.
TEST(EventCountTest, ParkRechecksAfterAnnouncing) {
  EventCount ev;
  std::atomic<bool> flag{false};
  std::atomic<bool> returned{false};
  bool raced = false;
  std::thread waiter([&] {
    ev.Park([&] {
      const bool ready = flag.load();
      if (!ready && !raced) {
        raced = true;
        flag.store(true);
        ev.Notify();  // no waiter announced yet: wakes nobody
      }
      return ready;
    });
    returned.store(true);
  });
  const bool woke = WaitFor([&] { return returned.load(); });
  if (!woke) ev.NotifyAll();  // unblock the lost park before joining
  waiter.join();
  EXPECT_TRUE(woke) << "Park missed a notify that landed before it parked";
}

TEST(EventCountTest, TimedWaitReturnsByItsDeadline) {
  EventCount ev;
  const auto start = EventCount::Clock::now();
  const auto deadline = start + std::chrono::milliseconds(20);
  const EventCount::Key key = ev.PrepareWait();
  EXPECT_FALSE(ev.WaitUntil(key, deadline));
  const auto end = EventCount::Clock::now();
  EXPECT_GE(end, deadline);
  EXPECT_LT(end - start, std::chrono::seconds(5));
  EXPECT_EQ(ev.Waiters(), 0);

  // ParkUntil: false at the deadline, true at once when the predicate holds.
  EXPECT_FALSE(ev.ParkUntil([] { return false; },
                            EventCount::Clock::now() +
                                std::chrono::milliseconds(5)));
  EXPECT_TRUE(ev.ParkUntil([] { return true; }, EventCount::Clock::now()));

  // A notification before the deadline ends the timed wait early.
  std::atomic<bool> flag{false};
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    EXPECT_TRUE(ev.ParkUntil([&] { return flag.load(); },
                             EventCount::Clock::now() +
                                 std::chrono::seconds(30)));
    returned.store(true);
  });
  const bool parked = WaitFor([&] { return ev.Waiters() == 1; });
  flag.store(true);
  ev.Notify();
  const bool woke = WaitFor([&] { return returned.load(); });
  waiter.join();  // the 30 s deadline bounds the join
  EXPECT_TRUE(parked);
  EXPECT_TRUE(woke);
}

TEST(EventCountTest, NotifyAllWakesEveryParkedWaiter) {
  EventCount ev;
  constexpr int kWaiters = 4;
  std::atomic<bool> go{false};
  std::atomic<int> woken{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      ev.Park([&] { return go.load(); });
      woken.fetch_add(1);
    });
  }
  // On failure, release and join every waiter before reporting.
  auto finish = [&] {
    go.store(true);
    while (woken.load() < kWaiters) {
      ev.NotifyAll();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::thread& t : waiters) t.join();
  };
  if (!WaitFor([&] { return ev.Waiters() == kWaiters; })) {
    const int parked = ev.Waiters();
    finish();
    FAIL() << "only " << parked << " of " << kWaiters << " parked";
  }
  go.store(true);
  ev.NotifyAll();  // one call must wake them all
  const bool all = WaitFor([&] { return woken.load() == kWaiters; });
  const int n = woken.load();
  finish();
  EXPECT_TRUE(all) << "NotifyAll woke " << n << " of " << kWaiters;
  EXPECT_EQ(ev.Waiters(), 0);
}

TEST(MpmcQueueTest, SizeReflectsContents) {
  MpmcQueue<int> q;
  EXPECT_EQ(q.Size(), 0u);
  q.Push(1);
  q.Push(2);
  EXPECT_EQ(q.Size(), 2u);
  q.TryPop();
  EXPECT_EQ(q.Size(), 1u);
}

}  // namespace
}  // namespace c5
