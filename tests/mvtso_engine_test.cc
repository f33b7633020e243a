#include "txn/mvtso_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace c5::txn {
namespace {

class MvtsoTest : public ::testing::Test {
 protected:
  MvtsoTest() : engine_(&db_, &collector_, &clock_) {
    table_ = db_.CreateTable("t");
  }

  storage::Database db_;
  TxnClock clock_;
  log::PerThreadLogCollector collector_;
  MvtsoEngine engine_;
  TableId table_;
};

TEST_F(MvtsoTest, TimestampsAreUniqueAndIncreasing) {
  Timestamp first = 0, second = 0;
  engine_.Execute([&](Txn& txn) {
    first = txn.timestamp();
    return Status::Ok();
  });
  engine_.Execute([&](Txn& txn) {
    second = txn.timestamp();
    return Status::Ok();
  });
  EXPECT_GT(second, first);
  EXPECT_GT(first, kInvalidTimestamp);
}

TEST_F(MvtsoTest, LostUpdateIsPrevented) {
  // Two transactions read-modify-write the same counter concurrently, with
  // a handshake forcing interleaving: at least one must abort.
  ASSERT_TRUE(engine_.Execute([this](Txn& txn) {
    return txn.Put(table_, 1, workload::EncodeIntValue(0));
  }).ok());

  std::atomic<int> phase{0};
  Status s1, s2;
  std::thread t1([&] {
    s1 = engine_.Execute([&](Txn& txn) {
      Value v;
      Status s = txn.Read(table_, 1, &v);
      if (!s.ok()) return s;
      phase.store(1);
      while (phase.load() != 2) std::this_thread::yield();
      return txn.Update(table_, 1, workload::EncodeIntValue(
                                       workload::DecodeIntValue(v) + 1));
    });
  });
  std::thread t2([&] {
    while (phase.load() != 1) std::this_thread::yield();
    s2 = engine_.Execute([&](Txn& txn) {
      Value v;
      Status s = txn.Read(table_, 1, &v);
      if (!s.ok()) return s;
      s = txn.Update(table_, 1, workload::EncodeIntValue(
                                    workload::DecodeIntValue(v) + 1));
      return s;
    });
    phase.store(2);
  });
  t1.join();
  t2.join();

  Value v;
  ASSERT_TRUE(engine_.Execute([this, &v](Txn& txn) {
    return txn.Read(table_, 1, &v);
  }).ok());
  const std::uint64_t final_value = workload::DecodeIntValue(v);
  const int commits = (s1.ok() ? 1 : 0) + (s2.ok() ? 1 : 0);
  EXPECT_EQ(final_value, static_cast<std::uint64_t>(commits))
      << "s1=" << s1 << " s2=" << s2;
}

TEST_F(MvtsoTest, ConcurrentCountersConvergeWithRetry) {
  // N threads x M increments on a shared counter with retries: the final
  // value must be exactly N*M (serializability sanity under contention).
  ASSERT_TRUE(engine_.Execute([this](Txn& txn) {
    return txn.Put(table_, 1, workload::EncodeIntValue(0));
  }).ok());
  constexpr int kThreads = 8, kIncr = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this] {
      for (int i = 0; i < kIncr; ++i) {
        const Status s = engine_.ExecuteWithRetry(
            [this](Txn& txn) {
              Value v;
              Status st = txn.Read(table_, 1, &v);
              if (!st.ok()) return st;
              return txn.Update(table_, 1,
                                workload::EncodeIntValue(
                                    workload::DecodeIntValue(v) + 1));
            },
            /*max_attempts=*/100000);
        ASSERT_TRUE(s.ok()) << s;
      }
    });
  }
  for (auto& t : threads) t.join();
  Value v;
  ASSERT_TRUE(engine_.Execute([this, &v](Txn& txn) {
    return txn.Read(table_, 1, &v);
  }).ok());
  EXPECT_EQ(workload::DecodeIntValue(v),
            static_cast<std::uint64_t>(kThreads) * kIncr);
}

TEST_F(MvtsoTest, ConcurrentDisjointInsertsAllCommit) {
  constexpr int kThreads = 8, kPer = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < kPer; ++i) {
        const Key k = static_cast<Key>(t) * kPer + i + 100;
        ASSERT_TRUE(engine_
                        .ExecuteWithRetry([this, k](Txn& txn) {
                          return txn.Insert(table_, k, "v");
                        })
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(engine_.stats().commits.load(),
            static_cast<std::uint64_t>(kThreads) * kPer);
  EXPECT_EQ(db_.index(table_).Size(), static_cast<std::size_t>(kThreads) * kPer);
}

TEST_F(MvtsoTest, GcHorizonTrailsActiveTxns) {
  ASSERT_TRUE(engine_.Execute([this](Txn& txn) {
    return txn.Insert(table_, 1, "x");
  }).ok());
  const Timestamp h = engine_.GcHorizon();
  EXPECT_LT(h, clock_.Latest() + 1);
}

TEST_F(MvtsoTest, SnapshotReadsAreStableUnderConcurrentWrites) {
  // A multi-read transaction must see one consistent snapshot even while a
  // writer races: both keys are updated together, so a reader either sees
  // both old or both new values (never a mix) — or aborts.
  ASSERT_TRUE(engine_.Execute([this](Txn& txn) {
    Status s = txn.Put(table_, 1, workload::EncodeIntValue(0));
    if (!s.ok()) return s;
    return txn.Put(table_, 2, workload::EncodeIntValue(0));
  }).ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t n = 1;
    while (!stop.load()) {
      engine_.ExecuteWithRetry([&](Txn& txn) {
        Status s = txn.Update(table_, 1, workload::EncodeIntValue(n));
        if (!s.ok()) return s;
        return txn.Update(table_, 2, workload::EncodeIntValue(n));
      });
      ++n;
    }
  });

  for (int i = 0; i < 2000; ++i) {
    std::uint64_t a = 0, b = 0;
    const Status s = engine_.Execute([&](Txn& txn) {
      Value v;
      Status st = txn.Read(table_, 1, &v);
      if (!st.ok()) return st;
      a = workload::DecodeIntValue(v);
      st = txn.Read(table_, 2, &v);
      if (!st.ok()) return st;
      b = workload::DecodeIntValue(v);
      return Status::Ok();
    });
    if (s.ok()) {
      ASSERT_EQ(a, b) << "torn snapshot at iteration " << i;
    }
  }
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace c5::txn
