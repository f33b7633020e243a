// Parameterized correctness suite run against EVERY cloned concurrency
// control protocol in the repository: state convergence, per-row ordering,
// visibility (monotonic prefix consistency), and read-only transaction
// behaviour, on low- and high-contention logs from both primary engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>

#include "api/snapshot.h"
#include "core/protocol_factory.h"
#include "log/segment_source.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace c5 {
namespace {

using core::MakeReplica;
using core::ProtocolKind;
using core::ProtocolOptions;

// kKuaFuUnconstrained is excluded: it is a diagnostic mode that
// intentionally breaks correctness (§7.3).
const ProtocolKind kAllCorrectProtocols[] = {
    ProtocolKind::kC5,           ProtocolKind::kC5MyRocks,
    ProtocolKind::kC5Queue,      ProtocolKind::kPageGranularity,
    ProtocolKind::kTableGranularity, ProtocolKind::kKuaFu,
    ProtocolKind::kSingleThread, ProtocolKind::kQueryFresh,
};

class ReplicaParamTest
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, int>> {
 protected:
  ProtocolKind kind() const { return std::get<0>(GetParam()); }
  int workers() const { return std::get<1>(GetParam()); }

  ProtocolOptions Options() const {
    ProtocolOptions o;
    o.num_workers = workers();
    o.snapshot_interval = std::chrono::microseconds(100);
    return o;
  }

  // Replays `log` into a fresh backup with the same table layout as the
  // primary and returns the backup database for inspection.
  void ReplayAndCheckConvergence(test::SyntheticRun& run) {
    storage::Database backup;
    workload::SyntheticWorkload::CreateTable(&backup);

    run.log.ResetReplayState();
    log::OfflineSegmentSource source(&run.log);
    auto replica = MakeReplica(kind(), &backup, Options());
    replica->Start(&source);
    replica->WaitUntilCaughtUp();
    replica->Stop();

    EXPECT_EQ(replica->stats().applied_writes.load(), run.log.NumRecords());
    EXPECT_EQ(replica->stats().applied_txns.load(),
              run.log.CountTransactions());
    EXPECT_EQ(replica->VisibleTimestamp(), run.log.MaxTimestamp());

    const std::uint64_t primary_digest =
        test::StateDigest(run.primary->db, kMaxTimestamp);
    const std::uint64_t backup_digest =
        test::StateDigest(backup, kMaxTimestamp);
    EXPECT_EQ(primary_digest, backup_digest)
        << "backup state diverged from primary";

    // Per-row version chains must be strictly decreasing in timestamp.
    const auto guard = backup.epochs().Enter();
    for (TableId t = 0; t < backup.NumTables(); ++t) {
      const storage::Table& table = backup.table(t);
      for (RowId r = 0; r < table.NumRows(); ++r) {
        Timestamp prev = kMaxTimestamp;
        for (const storage::Version* v = table.ReadLatestCommitted(r);
             v != nullptr; v = v->Next()) {
          ASSERT_LT(v->write_ts, prev) << "per-row order violated";
          prev = v->write_ts;
        }
      }
    }
  }
};

TEST_P(ReplicaParamTest, ConvergesOnInsertOnlyLog) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/false, /*clients=*/4,
                                       /*txns_per_client=*/300);
  ASSERT_TRUE(test::LogIsWellFormed(run.log));
  ReplayAndCheckConvergence(run);
}

TEST_P(ReplicaParamTest, ConvergesOnAdversarialLog) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/4,
                                       /*txns_per_client=*/300);
  ASSERT_TRUE(test::LogIsWellFormed(run.log));
  ReplayAndCheckConvergence(run);
}

TEST_P(ReplicaParamTest, ConvergesOnTwoPhaseLockingLog) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/4,
                                       /*txns_per_client=*/200,
                                       /*inserts_per_txn=*/4,
                                       /*use_2pl=*/true);
  ASSERT_TRUE(test::LogIsWellFormed(run.log));
  ReplayAndCheckConvergence(run);
}

TEST_P(ReplicaParamTest, ConvergesOnSingleWriteTxns) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/false, /*clients=*/2,
                                       /*txns_per_client=*/200,
                                       /*inserts_per_txn=*/1);
  ReplayAndCheckConvergence(run);
}

TEST_P(ReplicaParamTest, EmptyLogCompletes) {
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::Log empty;
  log::OfflineSegmentSource source(&empty);
  auto replica = MakeReplica(kind(), &backup, Options());
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  replica->Stop();
  EXPECT_EQ(replica->stats().applied_writes.load(), 0u);
}

TEST_P(ReplicaParamTest, SnapshotGetFindsReplicatedRows) {
  auto run = test::RunSyntheticPrimary(false, 2, 100, 2);
  storage::Database backup;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup);

  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  auto replica = MakeReplica(kind(), &backup, Options());
  replica->Start(&source);
  replica->WaitUntilCaughtUp();

  // Every key in the log must be readable at the final snapshot.
  std::uint64_t found = 0;
  for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
    for (const auto& rec : run.log.segment(s)->records()) {
      Value v;
      if (replica->OpenSnapshot().Get(table, rec.key, &v).ok()) ++found;
    }
  }
  EXPECT_EQ(found, run.log.NumRecords());
  replica->Stop();
}

// The shared apply step samples install latency on every eager protocol
// (Query Fresh applies on the read path, which is not sampled), and Stop()
// is idempotent: a second call and the destructor's own call are no-ops.
TEST_P(ReplicaParamTest, SamplesApplyLatencyAndStopsIdempotently) {
  auto run = test::RunSyntheticPrimary(false, 2, 100);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  auto replica = MakeReplica(kind(), &backup, Options());
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  replica->Stop();
  replica->Stop();
  if (kind() != ProtocolKind::kQueryFresh) {
    EXPECT_GT(replica->ApplyLatencySnapshot().count(), 0u);
  }
  EXPECT_EQ(replica->stats().applied_writes.load(), run.log.NumRecords());
  replica.reset();
}

// Monotonic prefix consistency under concurrent readers: while the replica
// applies the log, readers repeatedly execute two-key read-only transactions
// against pair rows that every transaction writes together with equal
// values. MPC requires (a) each read-only transaction sees equal values
// (transactional atomicity) and (b) the value sequence each reader observes
// is non-decreasing (monotonicity).
TEST_P(ReplicaParamTest, MonotonicPrefixConsistencyDuringReplay) {
  // Every protocol — lazy ones included — is read through the Snapshot
  // surface, which funnels Query Fresh's deferred instantiation through
  // PrepareRowRead; MPC must therefore hold uniformly.
  // Build a paired-write log on an MVTSO primary.
  auto primary = test::Primary::Mvtso();
  const TableId table =
      workload::SyntheticWorkload::CreateTable(&primary->db);
  constexpr Key kA = 100, kB = 200;
  {
    const Status s = primary->engine->ExecuteWithRetry([&](txn::Txn& txn) {
      Status st = txn.Put(table, kA, workload::EncodeIntValue(0));
      if (!st.ok()) return st;
      return txn.Put(table, kB, workload::EncodeIntValue(0));
    });
    ASSERT_TRUE(s.ok());
  }
  for (std::uint64_t n = 1; n <= 400; ++n) {
    // Interleave unique inserts to give parallel protocols work to reorder.
    const Status s = primary->engine->ExecuteWithRetry([&](txn::Txn& txn) {
      Status st = txn.Insert(table, 1000 + n, workload::EncodeIntValue(n));
      if (!st.ok()) return st;
      st = txn.Update(table, kA, workload::EncodeIntValue(n));
      if (!st.ok()) return st;
      return txn.Update(table, kB, workload::EncodeIntValue(n));
    });
    ASSERT_TRUE(s.ok());
  }
  log::Log log = primary->collector->Coalesce();

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::OfflineSegmentSource source(&log);
  auto replica = MakeReplica(kind(), &backup, Options());

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread reader([&] {
    std::uint64_t last_seen = 0;
    Timestamp last_ts = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const c5::Snapshot snap = replica->OpenSnapshot();
      const Timestamp ts = snap.timestamp();
      if (ts < last_ts) violation.store(true);  // snapshot went backwards
      last_ts = ts;
      if (ts == 0) continue;
      Value va, vb;
      const std::uint64_t a =
          snap.Get(table, kA, &va).ok() ? workload::DecodeIntValue(va) : 0;
      const std::uint64_t b =
          snap.Get(table, kB, &vb).ok() ? workload::DecodeIntValue(vb) : 0;
      if (a != b) violation.store(true);        // torn transaction
      if (a < last_seen) violation.store(true);  // regression
      last_seen = a;
    }
  });

  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  stop.store(true, std::memory_order_release);
  reader.join();
  replica->Stop();

  EXPECT_FALSE(violation.load()) << "MPC violated during replay";

  // Final state: both pair rows at 400.
  Value v;
  ASSERT_TRUE(replica->OpenSnapshot().Get(table, kA, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 400u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ReplicaParamTest,
    ::testing::Combine(::testing::ValuesIn(kAllCorrectProtocols),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<ProtocolKind, int>>& info) {
      std::string name = core::ToString(std::get<0>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_w" + std::to_string(std::get<1>(info.param));
    });

// Every protocol that runs replay workers, and so the maintenance thread.
const ProtocolKind kProtocolsWithWorkers[] = {
    ProtocolKind::kC5,
    ProtocolKind::kC5MyRocks,
    ProtocolKind::kC5Queue,
    ProtocolKind::kPageGranularity,
    ProtocolKind::kTableGranularity,
    ProtocolKind::kKuaFu,
};

class ReclaimWhileReplayingTest
    : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  static constexpr Key kKeys = 16;

  // A small keyspace overwritten many times, so replay retires a version
  // per write.
  static log::Log OverwriteLog() {
    auto primary = test::Primary::Mvtso();
    const TableId table =
        workload::SyntheticWorkload::CreateTable(&primary->db);
    for (std::uint64_t n = 0; n < 2000; ++n) {
      const Status s = primary->engine->ExecuteWithRetry([&](txn::Txn& txn) {
        for (Key k = 0; k < 4; ++k) {
          const Status st = txn.Put(table, (n * 4 + k) % kKeys,
                                    workload::EncodeIntValue(n));
          if (!st.ok()) return st;
        }
        return Status::Ok();
      });
      EXPECT_TRUE(s.ok());
    }
    return primary->collector->Coalesce();
  }

  // Waits (bounded) until the replica is visible up to the source's gate,
  // `collect` has left about one version per row and at most
  // `max_retired` retired items wait to be freed, then checks that one
  // observation saw all of it. A maintenance pass may retire more versions
  // right after that observation, so nothing is read a second time.
  static void ExpectReclaimedAtGate(replica::ReplicaBase& replica,
                                    Timestamp gated_ts,
                                    std::size_t max_retired,
                                    const std::function<bool()>& collect) {
    storage::Database& backup = replica.db();
    const auto versions_per_row = [&backup] {
      const auto guard = backup.epochs().Enter();
      const storage::Table& t = backup.table(0);
      return static_cast<double>(t.CountVersionsApprox()) /
             static_cast<double>(std::max<RowId>(t.NumRows(), 1));
    };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    Timestamp visible = 0;
    bool collected = false;
    std::size_t retired = 0;
    double per_row = 0;
    while (true) {
      visible = replica.VisibleTimestamp();
      collected = collect();
      retired = backup.epochs().RetiredCountApprox();
      per_row = versions_per_row();
      if ((visible >= gated_ts && collected && retired <= max_retired &&
           per_row < 1.5) ||
          std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(visible, gated_ts);
    EXPECT_TRUE(collected);
    EXPECT_LE(retired, max_retired)
        << "retired versions were not reclaimed while the replica ran";
    EXPECT_LT(per_row, 1.5);
  }
};

// Garbage collection must free memory while the replay workers are alive,
// not only once they exit: a worker that held an epoch guard for its whole
// life pinned every retired version, so the retired list only grew. The
// source stalls before its last segment, with every worker idle but
// running.
TEST_P(ReclaimWhileReplayingTest, FreesRetiredVersionsWhileWorkersRun) {
  log::Log log = OverwriteLog();
  ASSERT_GE(log.NumSegments(), 2u);
  const Timestamp gated_ts = log.segment(log.NumSegments() - 2)->MaxTimestamp();

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::GatedSegmentSource source(&log, log.NumSegments() - 1);
  ProtocolOptions options;
  options.num_workers = 2;
  options.snapshot_interval = std::chrono::microseconds(100);
  options.gc_every = 2;
  auto replica = MakeReplica(GetParam(), &backup, options);
  replica->Start(&source);

  // The maintenance thread collects. A pass counts itself after it has
  // collected, so wait for the counter too.
  ExpectReclaimedAtGate(*replica, gated_ts, kKeys, [&replica] {
    return replica->stats().gc_passes.load() > 0;
  });
  EXPECT_GT(replica->stats().gc_passes.load(), 0u);

  source.Open();
  replica->WaitUntilCaughtUp();
  replica->Stop();
  EXPECT_EQ(replica->stats().applied_writes.load(), log.NumRecords());
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsWithWorkers, ReclaimWhileReplayingTest,
    ::testing::ValuesIn(kProtocolsWithWorkers),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      std::string name = core::ToString(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Every applying thread keeps its counts local and flushes them once per
// unit of work, always before it waits. With the source stalled before its
// last segment, the counters must cover every delivered record while the
// workers block; after catch-up they cover the whole log, and the
// per-worker loads add up to the applied writes.
class ApplyTallyTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ApplyTallyTest, FlushesBeforeEveryWaitAndLoadsSumToAppliedWrites) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, 4, 200);
  log::Log& log = run.log;
  ASSERT_GE(log.NumSegments(), 2u);
  const std::size_t gate = log.NumSegments() - 1;
  std::uint64_t pre_gate_writes = 0;
  std::uint64_t txns = 0;
  for (std::size_t s = 0; s < log.NumSegments(); ++s) {
    for (const log::LogRecord& rec : log.segment(s)->records()) {
      if (s < gate) ++pre_gate_writes;
      if (rec.last_in_txn) ++txns;
    }
  }

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log.ResetReplayState();
  log::GatedSegmentSource source(&log, gate);
  constexpr int kWorkers = 3;
  auto replica = MakeReplica(
      GetParam(), &backup,
      {.num_workers = kWorkers,
       .snapshot_interval = std::chrono::microseconds(100)});
  replica->Start(&source);

  const replica::ReplicaStats& stats = replica->stats();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (stats.applied_writes.load() < pre_gate_writes &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(stats.applied_writes.load(), pre_gate_writes)
      << "a worker waits with writes it has not reported";

  source.Open();
  replica->WaitUntilCaughtUp();
  replica->Stop();
  EXPECT_EQ(stats.applied_writes.load(), log.NumRecords());
  EXPECT_EQ(stats.applied_txns.load(), txns);
  const std::vector<replica::ReplicaBase::WorkerLoad> loads =
      replica->WorkerLoads();
  ASSERT_EQ(loads.size(), static_cast<std::size_t>(kWorkers));
  std::uint64_t records = 0;
  std::uint64_t cpu_ns = 0;
  for (const auto& load : loads) {
    records += load.applied_records;
    cpu_ns += load.cpu_ns;
  }
  EXPECT_EQ(records, stats.applied_writes.load());
  EXPECT_GT(cpu_ns, 0u);
}

// The protocols with workers, plus the unconstrained KuaFu diagnostic,
// which counts through the same tally.
const ProtocolKind kTallyProtocols[] = {
    ProtocolKind::kC5,
    ProtocolKind::kC5MyRocks,
    ProtocolKind::kC5Queue,
    ProtocolKind::kPageGranularity,
    ProtocolKind::kTableGranularity,
    ProtocolKind::kKuaFu,
    ProtocolKind::kKuaFuUnconstrained,
};

INSTANTIATE_TEST_SUITE_P(
    ProtocolsWithWorkers, ApplyTallyTest, ::testing::ValuesIn(kTallyProtocols),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      std::string name = core::ToString(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Single-threaded replay runs no maintenance thread, but a caller that
// collects on its database must still free what it retires while the
// scheduler thread waits on its source: that thread holds an epoch guard
// per segment, never across Next().
TEST_F(ReclaimWhileReplayingTest, SingleThreadFreesRetiredVersionsWhileStalled) {
  log::Log log = OverwriteLog();
  ASSERT_GE(log.NumSegments(), 2u);
  const Timestamp gated_ts = log.segment(log.NumSegments() - 2)->MaxTimestamp();

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::GatedSegmentSource source(&log, log.NumSegments() - 1);
  auto replica = MakeReplica(ProtocolKind::kSingleThread, &backup, {});
  replica->Start(&source);

  // The test thread collects and reclaims; with no guard held anywhere,
  // everything it retired is freed.
  ExpectReclaimedAtGate(*replica, gated_ts, 0, [&] {
    backup.CollectGarbage(replica->GcHorizon());
    backup.epochs().ReclaimSome();
    return true;
  });

  source.Open();
  replica->WaitUntilCaughtUp();
  replica->Stop();
  EXPECT_EQ(replica->stats().applied_writes.load(), log.NumRecords());
}

// Stop() before catch-up returns even with far more transactions queued
// than the C5-MyRocks prefix tracker holds (64k at the default snapshot
// interval). A worker draining its closed queue waits in the tracker's
// back-pressure until Advance() frees room, so the visibility loop must keep
// advancing after Stop() until the workers exit.
TEST(C5MyRocksStopTest, StopBeforeCatchUpReturnsWithMoreTxnsThanTheTracker) {
  constexpr std::uint64_t kRows = 1024;
  constexpr std::uint64_t kTxns = 300000;
  constexpr std::size_t kSegmentRecords = 1024;
  log::Log log;
  auto seg = std::make_unique<log::LogSegment>(/*base_seq=*/0);
  for (std::uint64_t i = 0; i < kTxns; ++i) {
    log::LogRecord rec;
    rec.row = rec.key = i % kRows;
    rec.op = i < kRows ? OpType::kInsert : OpType::kUpdate;
    rec.commit_ts = i + 1;
    rec.last_in_txn = true;
    rec.value = "v";
    seg->Append(rec);
    if (seg->size() == kSegmentRecords) {
      log.AppendSegment(std::move(seg));
      seg = std::make_unique<log::LogSegment>(/*base_seq=*/i + 1);
    }
  }
  if (!seg->empty()) log.AppendSegment(std::move(seg));

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::OfflineSegmentSource source(&log);
  auto replica = MakeReplica(ProtocolKind::kC5MyRocks, &backup,
                             ProtocolOptions{.num_workers = 4});
  replica->Start(&source);
  // Every transaction queued. The scheduler outruns the workers, so far
  // more than the tracker holds is still ahead of them.
  while (replica->watermark() < kTxns) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    replica->Stop();
    stopped.store(true, std::memory_order_release);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!stopped.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!stopped.load(std::memory_order_acquire)) {
    // The replica's threads cannot be joined; end the binary with a
    // readable failure instead of waiting for the suite's timeout.
    std::fprintf(stderr, "Stop() did not return within 60 s\n");
    std::_Exit(1);
  }
  stopper.join();
  // Stop() lets the workers drain what was queued.
  EXPECT_EQ(replica->stats().applied_writes.load(), kTxns);
}

// The unconstrained-KuaFu diagnostic still applies every write and
// terminates; it just may not converge to the primary's state.
TEST(KuaFuUnconstrainedTest, AppliesEverythingAndTerminates) {
  auto run = test::RunSyntheticPrimary(true, 4, 200);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  auto replica = MakeReplica(ProtocolKind::kKuaFuUnconstrained, &backup,
                             ProtocolOptions{.num_workers = 4});
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  replica->Stop();
  EXPECT_EQ(replica->stats().applied_writes.load(), run.log.NumRecords());
}

}  // namespace
}  // namespace c5
