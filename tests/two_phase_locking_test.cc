#include "txn/two_phase_locking_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace c5::txn {
namespace {

class TplTest : public ::testing::Test {
 protected:
  TplTest() : engine_(&db_, &collector_, &clock_) {
    table_ = db_.CreateTable("t");
  }

  storage::Database db_;
  TxnClock clock_;
  log::PerThreadLogCollector collector_;
  TwoPhaseLockingEngine engine_;
  TableId table_;
};

TEST_F(TplTest, CancelledBodyReleasesLocksAndAppliesNothing) {
  engine_.Execute([this](Txn& txn) {
    EXPECT_TRUE(txn.Insert(table_, 1, "doomed").ok());
    return Status::Cancelled();
  });
  EXPECT_EQ(engine_.locks().LockedRowCountApprox(), 0u);
  EXPECT_EQ(engine_
                .Execute([this](Txn& txn) {
                  Value v;
                  return txn.Read(table_, 1, &v);
                })
                .code(),
            StatusCode::kNotFound);
}

TEST_F(TplTest, LockConflictTimesOutAndIsRetryable) {
  // Hold a lock in txn A (paused mid-body), then run txn B with a short
  // engine timeout: B must return kTimedOut.
  TwoPhaseLockingEngine::Options opts;
  opts.lock_wait_timeout = std::chrono::microseconds(30000);
  storage::Database db2;
  const TableId t2 = db2.CreateTable("t");
  TxnClock clock2;
  TwoPhaseLockingEngine eng(&db2, nullptr, &clock2, opts);

  ASSERT_TRUE(eng.Execute([t2](Txn& txn) {
    return txn.Insert(t2, 1, "x");
  }).ok());

  std::atomic<int> phase{0};
  Status b_status;
  std::thread a([&] {
    eng.Execute([&](Txn& txn) {
      const Status s = txn.Update(t2, 1, "a");
      EXPECT_TRUE(s.ok());
      phase.store(1);
      while (phase.load() != 2) std::this_thread::yield();
      return Status::Ok();
    });
  });
  while (phase.load() != 1) std::this_thread::yield();
  b_status = eng.Execute([t2](Txn& txn) {
    return txn.Update(t2, 1, "b");
  });
  phase.store(2);
  a.join();
  EXPECT_EQ(b_status.code(), StatusCode::kTimedOut);
  EXPECT_TRUE(b_status.IsRetryable());
}

TEST_F(TplTest, CommitOrderMatchesConflictOrder) {
  // Two conflicting transactions: the one acquiring the lock first commits
  // with the smaller LSN, and the final value is the second writer's.
  ASSERT_TRUE(engine_.Execute([this](Txn& txn) {
    return txn.Insert(table_, 1, "init");
  }).ok());
  std::atomic<int> phase{0};
  std::thread t1([&] {
    engine_.Execute([&](Txn& txn) {
      EXPECT_TRUE(txn.Update(table_, 1, "first").ok());
      phase.store(1);
      while (phase.load() != 2) std::this_thread::yield();
      return Status::Ok();
    });
  });
  while (phase.load() != 1) std::this_thread::yield();
  std::thread t2([&] {
    phase.store(2);
    ASSERT_TRUE(engine_
                    .ExecuteWithRetry([&](Txn& txn) {
                      return txn.Update(table_, 1, "second");
                    })
                    .ok());
  });
  t1.join();
  t2.join();
  Value v;
  ASSERT_TRUE(engine_.Execute([this, &v](Txn& txn) {
    return txn.Read(table_, 1, &v);
  }).ok());
  EXPECT_EQ(v, "second");
}

TEST_F(TplTest, ConcurrentCountersConverge) {
  ASSERT_TRUE(engine_.Execute([this](Txn& txn) {
    return txn.Put(table_, 1, workload::EncodeIntValue(0));
  }).ok());
  constexpr int kThreads = 8, kIncr = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this] {
      for (int i = 0; i < kIncr; ++i) {
        ASSERT_TRUE(engine_
                        .ExecuteWithRetry(
                            [this](Txn& txn) {
                              // Locking read: under read committed, a plain
                              // Read + Update would lose updates.
                              Value v;
                              Status st = txn.ReadForUpdate(table_, 1, &v);
                              if (!st.ok()) return st;
                              return txn.Update(
                                  table_, 1,
                                  workload::EncodeIntValue(
                                      workload::DecodeIntValue(v) + 1));
                            },
                            100000)
                        .ok());
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

TEST_F(TplTest, DeadlockResolvedByTimeoutRetry) {
  // Classic AB/BA deadlock; timeout-abort-retry must let both finish.
  ASSERT_TRUE(engine_.Execute([this](Txn& txn) {
    Status s = txn.Put(table_, 1, "a");
    if (!s.ok()) return s;
    return txn.Put(table_, 2, "b");
  }).ok());

  auto transfer = [this](Key first, Key second) {
    return engine_.ExecuteWithRetry(
        [this, first, second](Txn& txn) {
          Status s = txn.Update(table_, first, "x");
          if (!s.ok()) return s;
          std::this_thread::sleep_for(std::chrono::microseconds(500));
          return txn.Update(table_, second, "y");
        },
        100000);
  };
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      for (int j = 0; j < 20; ++j) {
        const Status s = i % 2 == 0 ? transfer(1, 2) : transfer(2, 1);
        if (s.ok()) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), 80);
}

TEST_F(TplTest, LsnOrderMatchesPerRowInstallOrder) {
  // After concurrent updates, the row's version chain must be strictly
  // increasing in LSN from tail to head.
  ASSERT_TRUE(engine_.Execute([this](Txn& txn) {
    return txn.Put(table_, 1, workload::EncodeIntValue(0));
  }).ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this] {
      for (int i = 0; i < 200; ++i) {
        engine_.ExecuteWithRetry([this](Txn& txn) {
          return txn.Update(table_, 1, "v");
        });
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto guard = db_.epochs().Enter();
  const RowId row = *db_.index(table_).Lookup(1);
  Timestamp prev = kMaxTimestamp;
  for (const storage::Version* v = db_.table(table_).ReadLatestCommitted(row);
       v != nullptr; v = v->Next()) {
    EXPECT_LT(v->write_ts, prev);
    prev = v->write_ts;
  }
}

TEST_F(TplTest, TimestampIsInvalidDuringBody) {
  engine_.Execute([this](Txn& txn) {
    EXPECT_EQ(txn.timestamp(), kInvalidTimestamp);
    return txn.Insert(table_, 1, "x");
  });
}

}  // namespace
}  // namespace c5::txn
