// Conformance suite for the primary engines: behaviour both MVTSO and 2PL
// must share (the write set, the in-transaction existence rule, commit
// staging and outcome accounting), run against each engine. Tests of one
// engine's concurrency-control rule stay in mvtso_engine_test.cc and
// two_phase_locking_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "ha/promotion.h"
#include "tests/test_util.h"

namespace c5::txn {
namespace {

class EngineTest : public ::testing::TestWithParam<ha::EngineKind> {
 protected:
  EngineTest() {
    table_ = db_.CreateTable("t");
    if (GetParam() == ha::EngineKind::kMvtso) {
      engine_ = std::make_unique<MvtsoEngine>(&db_, &collector_, &clock_);
    } else {
      engine_ =
          std::make_unique<TwoPhaseLockingEngine>(&db_, &collector_, &clock_);
    }
  }

  Status Run(const TxnFn& fn) { return engine_->Execute(fn); }

  // Commits Put(key, value) in a transaction of its own.
  void Seed(Key key, const char* value) {
    ASSERT_TRUE(Run([&](Txn& txn) { return txn.Put(table_, key, value); }).ok());
  }

  // The committed value of `key`, or the read's status text if it failed.
  std::string Committed(Key key) {
    Value v;
    const Status s = Run([&](Txn& txn) { return txn.Read(table_, key, &v); });
    return s.ok() ? v : s.ToString();
  }

  // Runs `ops` in a transaction that then rolls back, returning the status
  // of the last operation.
  template <typename Ops>
  Status LastStatusOf(Ops ops) {
    Status last;
    const Status s = Run([&](Txn& txn) {
      last = ops(txn);
      return Status::Cancelled();
    });
    EXPECT_EQ(s.code(), StatusCode::kCancelled);
    return last;
  }

  storage::Database db_;
  TxnClock clock_;
  log::PerThreadLogCollector collector_;
  std::unique_ptr<Engine> engine_;
  TableId table_;
};

TEST_P(EngineTest, InsertAndRead) {
  ASSERT_TRUE(Run([&](Txn& txn) { return txn.Insert(table_, 1, "hello"); })
                  .ok());
  EXPECT_EQ(Committed(1), "hello");
}

TEST_P(EngineTest, MissingKeyIsNotFound) {
  Value v;
  EXPECT_EQ(Run([&](Txn& txn) { return txn.Read(table_, 999, &v); }).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Run([&](Txn& txn) { return txn.Update(table_, 999, "x"); }).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Run([&](Txn& txn) { return txn.Delete(table_, 999); }).code(),
            StatusCode::kNotFound);
}

TEST_P(EngineTest, DuplicateInsertIsAlreadyExists) {
  Seed(1, "a");
  EXPECT_EQ(Run([&](Txn& txn) { return txn.Insert(table_, 1, "b"); }).code(),
            StatusCode::kAlreadyExists);
}

TEST_P(EngineTest, ReadYourOwnWrites) {
  ASSERT_TRUE(Run([&](Txn& txn) {
                Status s = txn.Insert(table_, 1, "v1");
                if (!s.ok()) return s;
                Value v;
                s = txn.Read(table_, 1, &v);
                if (!s.ok()) return s;
                EXPECT_EQ(v, "v1");
                s = txn.Update(table_, 1, "v2");
                if (!s.ok()) return s;
                s = txn.ReadForUpdate(table_, 1, &v);
                EXPECT_EQ(v, "v2");
                if (!s.ok()) return s;
                s = txn.Delete(table_, 1);
                if (!s.ok()) return s;
                s = txn.Read(table_, 1, &v);
                EXPECT_EQ(s.code(), StatusCode::kNotFound);
                return txn.Put(table_, 1, "v3");
              }).ok());
  EXPECT_EQ(Committed(1), "v3");
}

TEST_P(EngineTest, DeleteHidesRowAndReinsertRevivesIt) {
  for (const char* val : {"first", "second"}) {
    Seed(1, val);
    ASSERT_TRUE(Run([&](Txn& txn) { return txn.Delete(table_, 1); }).ok());
    EXPECT_EQ(Committed(1), Status::NotFound().ToString());
  }
  ASSERT_TRUE(Run([&](Txn& txn) { return txn.Insert(table_, 1, "third"); })
                  .ok());
  EXPECT_EQ(Committed(1), "third");
}

// The existence rule: the newest buffered write to a key decides whether it
// exists, before committed state is consulted.
TEST_P(EngineTest, InsertAfterOwnWriteIsAlreadyExists) {
  Seed(1, "committed");
  EXPECT_EQ(LastStatusOf([&](Txn& txn) {
              EXPECT_TRUE(txn.Insert(table_, 2, "a").ok());
              return txn.Insert(table_, 2, "b");
            }).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(LastStatusOf([&](Txn& txn) {
              EXPECT_TRUE(txn.Put(table_, 3, "a").ok());
              return txn.Insert(table_, 3, "b");
            }).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(LastStatusOf([&](Txn& txn) {
              EXPECT_TRUE(txn.Update(table_, 1, "a").ok());
              return txn.Insert(table_, 1, "b");
            }).code(),
            StatusCode::kAlreadyExists);
}

TEST_P(EngineTest, DeleteThenInsertWithinTxn) {
  Seed(1, "old");
  ASSERT_TRUE(Run([&](Txn& txn) {
                Status s = txn.Delete(table_, 1);
                if (!s.ok()) return s;
                return txn.Insert(table_, 1, "new");
              }).ok());
  EXPECT_EQ(Committed(1), "new");
}

TEST_P(EngineTest, UpdateOrDeleteAfterOwnDeleteIsNotFound) {
  Seed(1, "committed");
  EXPECT_EQ(LastStatusOf([&](Txn& txn) {
              EXPECT_TRUE(txn.Delete(table_, 1).ok());
              return txn.Update(table_, 1, "x");
            }).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(LastStatusOf([&](Txn& txn) {
              EXPECT_TRUE(txn.Delete(table_, 1).ok());
              return txn.Delete(table_, 1);
            }).code(),
            StatusCode::kNotFound);
  // A key this transaction created and deleted never existed outside it.
  EXPECT_EQ(LastStatusOf([&](Txn& txn) {
              EXPECT_TRUE(txn.Put(table_, 2, "a").ok());
              EXPECT_TRUE(txn.Delete(table_, 2).ok());
              return txn.Update(table_, 2, "b");
            }).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Committed(1), "committed");
}

// A committed delete leaves the key bound in the index: existence is the
// committed version at the read point, so the tombstone makes Update and
// Delete NotFound and nothing is logged for them (a kUpdate of a deleted
// row would resurrect it on every backup).
TEST_P(EngineTest, UpdateOrDeleteOfCommittedDeleteIsNotFound) {
  Seed(1, "committed");
  ASSERT_TRUE(Run([&](Txn& txn) { return txn.Delete(table_, 1); }).ok());
  EXPECT_EQ(Run([&](Txn& txn) { return txn.Update(table_, 1, "x"); }).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Run([&](Txn& txn) { return txn.Delete(table_, 1); }).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Committed(1), Status::NotFound().ToString());
  const log::Log log = collector_.Coalesce();
  ASSERT_EQ(log.NumRecords(), 2u);  // the seed and the delete
  EXPECT_EQ(log.segment(0)->record(1).op, OpType::kDelete);
}

TEST_P(EngineTest, PutAfterOwnDeleteShipsAnInsert) {
  ASSERT_TRUE(Run([&](Txn& txn) {
                EXPECT_TRUE(txn.Put(table_, 1, "a").ok());
                EXPECT_TRUE(txn.Delete(table_, 1).ok());
                return txn.Put(table_, 1, "b");
              }).ok());
  EXPECT_EQ(Committed(1), "b");
  const log::Log log = collector_.Coalesce();
  ASSERT_EQ(log.NumRecords(), 1u);
  EXPECT_EQ(log.segment(0)->record(0).op, OpType::kInsert);
  EXPECT_EQ(log.segment(0)->record(0).value, "b");
}

TEST_P(EngineTest, CancelledBodyAppliesNothing) {
  const Status s = Run([&](Txn& txn) {
    EXPECT_TRUE(txn.Insert(table_, 1, "doomed").ok());
    return Status::Cancelled("user rollback");
  });
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_EQ(Committed(1), Status::NotFound().ToString());
  EXPECT_EQ(collector_.BufferedTxns(), 0u);
  EXPECT_EQ(engine_->stats().user_aborts.load(), 1u);
  EXPECT_EQ(engine_->stats().aborts.load(), 1u);  // the NotFound read
  EXPECT_EQ(engine_->stats().commits.load(), 0u);
}

TEST_P(EngineTest, ReadOnlyTxnsProduceNoLog) {
  Seed(1, "x");
  EXPECT_EQ(Committed(1), "x");
  EXPECT_EQ(collector_.BufferedTxns(), 1u);  // only the seed
  EXPECT_EQ(engine_->stats().commits.load(), 2u);
}

TEST_P(EngineTest, WriteSetCoalescedPerRow) {
  ASSERT_TRUE(Run([&](Txn& txn) {
                Status s = txn.Insert(table_, 1, "a");
                if (!s.ok()) return s;
                s = txn.Update(table_, 1, "b");
                if (!s.ok()) return s;
                s = txn.Insert(table_, 2, "x");
                if (!s.ok()) return s;
                s = txn.Delete(table_, 2);
                if (!s.ok()) return s;
                return txn.Update(table_, 1, "c");
              }).ok());
  // One record per row; the final value is the last write, an insert stays
  // an insert unless a delete follows.
  EXPECT_EQ(Committed(1), "c");
  const log::Log log = collector_.Coalesce();
  ASSERT_EQ(log.NumRecords(), 2u);
  const auto& r0 = log.segment(0)->record(0);
  const auto& r1 = log.segment(0)->record(1);
  EXPECT_EQ(r0.key, 1u);
  EXPECT_EQ(r0.op, OpType::kInsert);
  EXPECT_EQ(r0.value, "c");
  EXPECT_EQ(r1.key, 2u);
  EXPECT_EQ(r1.op, OpType::kDelete);
}

TEST_P(EngineTest, LogBoundariesCarryTheCommitTimestamp) {
  ASSERT_TRUE(Run([&](Txn& txn) {
                Status s = txn.Insert(table_, 1, "a");
                if (!s.ok()) return s;
                return txn.Insert(table_, 2, "b");
              }).ok());
  ASSERT_TRUE(Run([&](Txn& txn) { return txn.Insert(table_, 3, "c"); }).ok());
  const log::Log log = collector_.Coalesce();
  ASSERT_EQ(log.NumRecords(), 3u);
  EXPECT_EQ(log.CountTransactions(), 2u);
  EXPECT_TRUE(test::LogIsWellFormed(log));
  const auto& r0 = log.segment(0)->record(0);
  const auto& r1 = log.segment(0)->record(1);
  const auto& r2 = log.segment(0)->record(2);
  EXPECT_NE(r0.commit_ts, kInvalidTimestamp);
  EXPECT_EQ(r0.commit_ts, r1.commit_ts);
  EXPECT_GT(r2.commit_ts, r1.commit_ts);
  EXPECT_FALSE(r0.last_in_txn);
  EXPECT_TRUE(r1.last_in_txn);
  EXPECT_TRUE(r2.last_in_txn);
  EXPECT_EQ(r0.prev_ts, kInvalidTimestamp);  // the primary leaves it unset
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineTest,
    ::testing::Values(ha::EngineKind::kMvtso,
                      ha::EngineKind::kTwoPhaseLocking),
    [](const ::testing::TestParamInfo<ha::EngineKind>& info) {
      return info.param == ha::EngineKind::kMvtso ? "Mvtso" : "TwoPhaseLocking";
    });

TEST(MakeEngineTest, BuildsTheNamedKindWithAnIdleHorizon) {
  storage::Database db;
  TxnClock clock;
  const auto mvtso = MakeEngine(EngineKind::kMvtso, &db, nullptr, &clock);
  const auto tpl =
      MakeEngine(EngineKind::kTwoPhaseLocking, &db, nullptr, &clock);
  EXPECT_EQ(mvtso->name(), "mvtso");
  EXPECT_EQ(tpl->name(), "2pl");
  EXPECT_EQ(mvtso->LogHorizon(), kMaxTimestamp);
  EXPECT_EQ(tpl->LogHorizon(), kMaxTimestamp);
}

}  // namespace
}  // namespace c5::txn
