// Parameterized correctness suite run against EVERY cloned concurrency
// control protocol in the repository: state convergence, per-row ordering,
// visibility (monotonic prefix consistency), and read-only transaction
// behaviour, on low- and high-contention logs from both primary engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

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

// A protocol's name as a test parameter name ('-' is not allowed).
std::string ProtocolParamName(
    const ::testing::TestParamInfo<ProtocolKind>& info) {
  std::string name = core::ToString(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

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
    ProtocolParamName);

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
    ProtocolParamName);

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

// More work in the log than a prefix tracker holds (64k marks at the
// default snapshot interval). C5 marks batches, at most one per worker per
// segment, so its log has one record per segment; the others mark records
// or transactions and get 1024-record segments. Every 8th transaction
// writes one hot row, so that chain lags while the rest of the log runs
// ahead of it. The scheduler, which outruns the workers, waits for tracker
// room once it is that far ahead of the marked prefix; a worker that waited
// to mark instead, holding older unmarked work, would wait forever.
class MoreWorkThanTheTrackerTest
    : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  static constexpr std::uint64_t kTxns = 300000;
  static constexpr std::uint64_t kTrackerMarks = std::uint64_t{1} << 16;
  static constexpr std::uint64_t kRows = 1024;  // plus the hot row

  // Transaction i is one write to RowOf(i) at commit timestamp i + 1.
  static RowId RowOf(std::uint64_t i) {
    return i % 8 == 0 ? kRows : i % kRows;
  }

  MoreWorkThanTheTrackerTest() {
    const std::size_t segment_records =
        GetParam() == ProtocolKind::kC5 ? 1 : 1024;
    auto seg = std::make_unique<log::LogSegment>(/*base_seq=*/0);
    for (std::uint64_t i = 0; i < kTxns; ++i) {
      log::LogRecord rec;
      rec.row = rec.key = RowOf(i);
      rec.op = i < kRows ? OpType::kInsert : OpType::kUpdate;
      rec.commit_ts = i + 1;
      rec.last_in_txn = true;
      // Empty: a segment with no value bytes allocates no value chunk.
      rec.value = "";
      seg->Append(rec);
      if (seg->size() == segment_records) {
        log_.AppendSegment(std::move(seg));
        seg = std::make_unique<log::LogSegment>(/*base_seq=*/i + 1);
      }
    }
    if (!seg->empty()) log_.AppendSegment(std::move(seg));
    workload::SyntheticWorkload::CreateTable(&backup_);
    replica_ =
        MakeReplica(GetParam(), &backup_, ProtocolOptions{.num_workers = 4});
  }

  // After Stop(): every write handed out was applied and none other. The
  // scheduler hands out in log order, so the applied transactions must be
  // exactly the first applied_writes of the log, and the published snapshot
  // must lie within them. A dropped hand-off leaves a hole below
  // applied_writes and an applied write above it.
  void ExpectAppliedPrefix() {
    const std::uint64_t applied = replica_->stats().applied_writes.load();
    EXPECT_GE(applied, replica_->VisibleTimestamp());
    // One walk down each row's version chain (no GC runs) finds every
    // installed write.
    std::vector<bool> installed(kTxns, false);
    storage::Table& table = backup_.table(0);
    for (RowId row = 0; row <= kRows; ++row) {
      table.EnsureRow(row);
      for (const storage::Version* v = table.ReadLatestCommitted(row);
           v != nullptr; v = v->next.load(std::memory_order_acquire)) {
        if (v->write_ts >= 1 && v->write_ts <= kTxns) {
          installed[v->write_ts - 1] = true;
        }
      }
    }
    std::uint64_t holes = 0;
    std::uint64_t beyond = 0;
    for (std::uint64_t i = 0; i < kTxns; ++i) {
      if (i < applied && !installed[i]) ++holes;
      if (i >= applied && installed[i]) ++beyond;
    }
    EXPECT_EQ(holes, 0u) << "of the first " << applied << " writes";
    EXPECT_EQ(beyond, 0u) << "past the first " << applied << " writes";
  }

  // Runs `fn` on a thread and ends the binary with a readable failure if
  // it has not returned within 60 s: a replica whose threads cannot be
  // joined would otherwise wait out the suite's timeout.
  void ReturnsWithin60s(const char* what, const std::function<void()>& fn) {
    std::atomic<bool> done{false};
    std::thread runner([&] {
      fn();
      done.store(true, std::memory_order_release);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!done.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!done.load(std::memory_order_acquire)) {
      std::fprintf(stderr, "%s: %s did not return within 60 s\n",
                   core::ToString(GetParam()), what);
      std::_Exit(1);
    }
    runner.join();
  }

  log::Log log_;
  storage::Database backup_;
  std::unique_ptr<replica::ReplicaBase> replica_;
};

TEST_P(MoreWorkThanTheTrackerTest, CatchesUp) {
  log::OfflineSegmentSource source(&log_);
  replica_->Start(&source);
  ReturnsWithin60s("WaitUntilCaughtUp()",
                   [&] { replica_->WaitUntilCaughtUp(); });
  replica_->Stop();
  EXPECT_EQ(replica_->stats().applied_writes.load(), kTxns);
  EXPECT_EQ(replica_->VisibleTimestamp(), kTxns);
  ExpectAppliedPrefix();
}

// Stop() before catch-up must end the scheduler's wait for room as well as
// the workers' loops.
TEST_P(MoreWorkThanTheTrackerTest, StopBeforeCatchUpReturns) {
  log::OfflineSegmentSource source(&log_);
  replica_->Start(&source);
  // Twice the tracker scheduled: the scheduler has waited for room.
  while (replica_->watermark() < 2 * kTrackerMarks) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ReturnsWithin60s("Stop()", [&] { replica_->Stop(); });
  ExpectAppliedPrefix();
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsWithWorkers, MoreWorkThanTheTrackerTest,
    ::testing::ValuesIn(kProtocolsWithWorkers),
    ProtocolParamName);

// Delivers a log, then blocks in Next() on a condition variable until
// Close(): a shipping channel that stays open with nothing to ship.
class OpenSegmentSource : public log::SegmentSource {
 public:
  explicit OpenSegmentSource(log::Log* log) : log_(log) {}

  log::LogSegment* Next() override {
    if (pos_ < log_->NumSegments()) return log_->segment(pos_++);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_; });
    return nullptr;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  log::Log* log_;
  std::size_t pos_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
};

// A caught-up replica whose source stays open parks every thread: its
// workers on their queues, its visibility loop until the next Mark and its
// scheduler in the source, so over an idle window the whole process uses
// under 2% of a core, where a worker that spins or yields while idle burns
// one core each and a visibility loop that ticks wakes 5k times a second.
class IdleParkTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(IdleParkTest, CaughtUpWorkersParkWhileTheSourceStaysOpen) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, 2, 100);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  OpenSegmentSource source(&run.log);
  auto replica =
      MakeReplica(GetParam(), &backup, ProtocolOptions{.num_workers = 4});
  replica->Start(&source);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (replica->VisibleTimestamp() < run.log.MaxTimestamp() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(replica->VisibleTimestamp(), run.log.MaxTimestamp());
  // Past every queue's spin budget.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto cpu0 = test::ProcessCpuTime();
  const auto wall0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto cpu = test::ProcessCpuTime() - cpu0;
  const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - wall0);
  EXPECT_LT(cpu.count(), wall.count() / 50)
      << "idle replica used " << cpu.count() << " us of CPU in "
      << wall.count() << " us";

  source.Close();
  replica->WaitUntilCaughtUp();
  replica->Stop();
  EXPECT_EQ(replica->stats().applied_writes.load(), run.log.NumRecords());
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsWithWorkers, IdleParkTest,
    ::testing::ValuesIn(kProtocolsWithWorkers),
    ProtocolParamName);

// snapshot_interval caps the publish rate: no visibility pass starts within
// one interval of the one before, also when the replica catches up between
// segments, so every arrival finds the loop parked. For C5-MyRocks the
// interval is the snapshot frequency I, and each snapshot blocks writers.
// 120 segments of 4 one-write transactions arrive 1 ms apart, against a
// 20 ms interval: at most one publish per interval, plus the final pass
// (which a drained replica starts at once) and the first.
class PublishCapTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(PublishCapTest, NoTwoPassesStartWithinOneInterval) {
  constexpr std::uint64_t kSegments = 120;
  constexpr std::uint64_t kTxnsPerSegment = 4;
  constexpr auto kInterval = std::chrono::milliseconds(20);
  log::Log log;
  for (std::uint64_t s = 0; s < kSegments; ++s) {
    auto seg = std::make_unique<log::LogSegment>(s * kTxnsPerSegment);
    for (std::uint64_t t = 0; t < kTxnsPerSegment; ++t) {
      const std::uint64_t i = s * kTxnsPerSegment + t;
      log::LogRecord rec;
      rec.row = rec.key = i % 64;
      rec.op = i < 64 ? OpType::kInsert : OpType::kUpdate;
      rec.commit_ts = i + 1;
      rec.last_in_txn = true;
      rec.value = "v";
      seg->Append(rec);
    }
    log.AppendSegment(std::move(seg));
  }
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::OfflineSegmentSource offline(&log);
  log::DelayedSegmentSource paced(
      &offline, [](std::size_t) { return std::chrono::microseconds(1000); });
  auto replica = MakeReplica(
      GetParam(), &backup,
      ProtocolOptions{.num_workers = 4, .snapshot_interval = kInterval});
  const auto t0 = std::chrono::steady_clock::now();
  replica->Start(&paced);
  replica->WaitUntilCaughtUp();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  replica->Stop();
  EXPECT_EQ(replica->VisibleTimestamp(), kSegments * kTxnsPerSegment);
  const std::uint64_t publishes = replica->stats().snapshots_taken.load();
  EXPECT_LE(publishes, static_cast<std::uint64_t>(elapsed / kInterval) + 2)
      << "in " << std::chrono::duration<double, std::milli>(elapsed).count()
      << " ms";
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsWithWorkers, PublishCapTest,
    ::testing::ValuesIn(kProtocolsWithWorkers),
    ProtocolParamName);

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
