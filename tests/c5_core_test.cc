// C5-specific behaviour: scheduler preprocessing (prev_timestamp chains),
// worker deferral, snapshot boundary alignment, and the MyRocks variant's
// blocking snapshotter.

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "core/c5_myrocks_replica.h"
#include "core/c5_replica.h"
#include "core/protocol_factory.h"
#include "log/segment_source.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace c5::core {
namespace {

// The 100 us snapshot interval these C5 tests were written against.
ProtocolOptions C5Options(int workers) {
  return {.num_workers = workers,
          .snapshot_interval = std::chrono::microseconds(100)};
}

TEST(C5SchedulerTest, PrevTimestampsFormPerRowChains) {
  // After a C5 replay, every segment is preprocessed and prev_ts fields
  // form, for each row, a chain 0 -> ts1 -> ts2 ... in log order.
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/4,
                                       /*txns_per_client=*/200);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::OfflineSegmentSource source(&run.log);
  C5Replica replica(&backup, C5Options(4));
  replica.Start(&source);
  replica.WaitUntilCaughtUp();
  replica.Stop();

  std::unordered_map<std::uint64_t, Timestamp> last;
  for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
    const log::LogSegment* seg = run.log.segment(s);
    EXPECT_TRUE(seg->preprocessed());
    for (const auto& rec : seg->records()) {
      const std::uint64_t row_name =
          (static_cast<std::uint64_t>(rec.table) << 56) | rec.row;
      auto it = last.find(row_name);
      const Timestamp expected =
          it == last.end() ? kInvalidTimestamp : it->second;
      ASSERT_EQ(rec.prev_ts, expected)
          << "prev_ts chain broken for row " << rec.row;
      last[row_name] = rec.commit_ts;
    }
  }
}

TEST(C5WorkerTest, AdversarialLogNeverDefersUnderRowAffinity) {
  // The scheduler partitions records by row, so every write of the hot row
  // lands on the same worker in log order: its predecessor is always
  // installed by the time the successor is attempted, and the deferred
  // queue (a defensive fallback) stays empty even on an adversarial
  // hot-row log. Convergence must hold regardless.
  auto run = test::RunSyntheticPrimary(true, 4, 500, /*inserts=*/1);
  {
    storage::Database backup;
    workload::SyntheticWorkload::CreateTable(&backup);
    run.log.ResetReplayState();
    log::OfflineSegmentSource source(&run.log);
    C5Replica replica(&backup, C5Options(4));
    replica.Start(&source);
    replica.WaitUntilCaughtUp();
    replica.Stop();
    EXPECT_EQ(test::StateDigest(run.primary->db, kMaxTimestamp),
              test::StateDigest(backup, kMaxTimestamp));
    EXPECT_EQ(replica.stats().deferred_writes.load(), 0u)
        << "row-affinity partitioning should make deferral unreachable";
    // Row affinity must not degenerate into one worker doing everything:
    // with many distinct rows, at least two workers apply records.
    int active_workers = 0;
    for (const auto& load : replica.WorkerLoads()) {
      if (load.applied_records > 0) ++active_workers;
    }
    EXPECT_GE(active_workers, 2) << "hash partitioning collapsed onto one "
                                    "worker";
  }
}

TEST(C5SnapshotTest, VisibleTimestampIsAlwaysAPrefixCompleteReadPoint) {
  // Sample the snapshot during replay. §4.2's transaction-boundary
  // alignment is automatic in C5-Cicada because every write of a
  // transaction carries the transaction's commit timestamp: ANY read point
  // c exposes only whole transactions (those with commit_ts <= c). The
  // sampled value is the end of the batch prefix, the max timestamp of the
  // last segment whose batches and all earlier ones are applied (MVTSO
  // leaves timestamp holes for aborted transactions, so c + 1 need not be
  // a commit timestamp). The checkable invariants are: c is monotonic,
  // never exceeds the log, and every write of every transaction at or below
  // a sampled c has been applied (prefix completeness).
  auto run = test::RunSyntheticPrimary(true, 4, 400);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  C5Replica replica(&backup,
                    ProtocolOptions{.num_workers = 4,
                                    .snapshot_interval =
                                        std::chrono::microseconds(50)});
  replica.Start(&source);
  Timestamp prev = 0;
  std::vector<Timestamp> samples;
  for (int i = 0; i < 1000; ++i) {
    const Timestamp c = replica.VisibleTimestamp();
    ASSERT_GE(c, prev) << "snapshot went backwards";
    ASSERT_LE(c, run.log.MaxTimestamp());
    samples.push_back(c);
    prev = c;
  }
  replica.WaitUntilCaughtUp();
  EXPECT_EQ(replica.VisibleTimestamp(), run.log.MaxTimestamp());
  replica.Stop();

  // Post-hoc prefix completeness for the largest mid-replay sample: every
  // record with commit_ts <= c must be in the backup (it is, trivially, now
  // that replay finished — the meaningful part ran DURING replay via the
  // monotonicity asserts — but verify the row data matches the log's last
  // write at or below c for the hot row, which changes every transaction).
  const Timestamp c = samples.back();
  const log::LogRecord* last_hot_below_c = nullptr;
  for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
    for (const auto& rec : run.log.segment(s)->records()) {
      if (rec.key == workload::SyntheticWorkload::kHotKey &&
          rec.commit_ts <= c) {
        last_hot_below_c = &rec;
      }
    }
  }
  if (last_hot_below_c != nullptr) {
    const auto guard = backup.epochs().Enter();
    const storage::Version* v =
        backup.ReadKeyAt(run.table, workload::SyntheticWorkload::kHotKey, c);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->value(), last_hot_below_c->value.view())
        << "state at sampled snapshot c=" << c
        << " does not match the log prefix";
  }
}

TEST(C5GcTest, SnapshotterGcBoundsVersionCount) {
  // With GC enabled, the hot row's chain must be trimmed during replay.
  auto run = test::RunSyntheticPrimary(true, 2, 2000, /*inserts=*/1);
  storage::Database backup;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  C5Replica replica(&backup,
                    ProtocolOptions{.num_workers = 2,
                                    .snapshot_interval =
                                        std::chrono::microseconds(50),
                                    .gc_every = 2});
  replica.Start(&source);
  replica.WaitUntilCaughtUp();
  replica.Stop();
  // One final sweep at the end.
  backup.CollectGarbage(replica.VisibleTimestamp() - 1);
  backup.epochs().ReclaimSome();

  const auto guard = backup.epochs().Enter();
  const RowId hot = *backup.index(table).Lookup(
      workload::SyntheticWorkload::kHotKey);
  std::size_t chain = 0;
  for (const storage::Version* v = backup.table(table).ReadLatestCommitted(hot);
       v != nullptr; v = v->Next()) {
    ++chain;
  }
  EXPECT_LT(chain, 4000u) << "GC never trimmed the hot chain";
  // And the newest value still matches the primary.
  EXPECT_EQ(test::StateDigest(run.primary->db, kMaxTimestamp),
            test::StateDigest(backup, kMaxTimestamp));
}

TEST(C5MyRocksTest, BlockingSnapshotterStillConverges) {
  auto run = test::RunSyntheticPrimary(true, 4, 300);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  C5MyRocksReplica replica(
      &backup,
      ProtocolOptions{
          .num_workers = 4,
          .snapshot_interval = std::chrono::microseconds(200),
          .snapshot_cost = std::chrono::microseconds(100)});
  replica.Start(&source);
  replica.WaitUntilCaughtUp();
  replica.Stop();
  EXPECT_GT(replica.stats().snapshots_taken.load(), 0u);
  EXPECT_EQ(test::StateDigest(run.primary->db, kMaxTimestamp),
            test::StateDigest(backup, kMaxTimestamp));
}

TEST(C5MyRocksTest, OneWorkerEqualsSingleThreadSemantics) {
  auto run = test::RunSyntheticPrimary(false, 2, 200);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  C5MyRocksReplica replica(
      &backup,
      ProtocolOptions{.num_workers = 1,
                      .snapshot_interval = std::chrono::microseconds(10000)});
  replica.Start(&source);
  replica.WaitUntilCaughtUp();
  replica.Stop();
  EXPECT_EQ(test::StateDigest(run.primary->db, kMaxTimestamp),
            test::StateDigest(backup, kMaxTimestamp));
}

TEST(C5WatermarkTest, WatermarkTracksScheduledMax) {
  auto run = test::RunSyntheticPrimary(false, 2, 100);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  C5Replica replica(&backup, C5Options(2));
  replica.Start(&source);
  replica.WaitUntilCaughtUp();
  EXPECT_EQ(replica.watermark(), run.log.MaxTimestamp());
  replica.Stop();
}

TEST(C5StressTest, ManyWorkersHighContention) {
  auto run = test::RunSyntheticPrimary(true, 8, 500, /*inserts=*/2);
  for (const int workers : {1, 2, 8, 16}) {
    storage::Database backup;
    workload::SyntheticWorkload::CreateTable(&backup);
    run.log.ResetReplayState();
    log::OfflineSegmentSource source(&run.log);
    C5Replica replica(&backup, C5Options(workers));
    replica.Start(&source);
    replica.WaitUntilCaughtUp();
    replica.Stop();
    ASSERT_EQ(test::StateDigest(run.primary->db, kMaxTimestamp),
              test::StateDigest(backup, kMaxTimestamp))
        << "diverged with " << workers << " workers";
  }
}

}  // namespace
}  // namespace c5::core
