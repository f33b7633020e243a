// Checkpoint write/load fidelity and the full §9 recovery loop:
// checkpoint + archived log tail -> restarted backup identical to one that
// never crashed.

#include "storage/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/protocol_factory.h"
#include "ha/recovery.h"
#include "log/log_file.h"
#include "log/segment_source.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace c5 {
namespace {

using core::MakeReplica;
using core::ProtocolKind;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(CheckpointTest, RoundTripsFullState) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/2,
                                       /*txns_per_client=*/150);
  const std::string path = TempPath("c5_ckpt_roundtrip.ckpt");
  const Timestamp ts = run.log.MaxTimestamp();
  ASSERT_TRUE(storage::WriteCheckpoint(run.primary->db, ts, path).ok());

  storage::Database restored;
  workload::SyntheticWorkload::CreateTable(&restored);
  Timestamp loaded_ts = 0;
  ASSERT_TRUE(storage::LoadCheckpoint(&restored, path, &loaded_ts).ok());
  EXPECT_EQ(loaded_ts, ts);
  EXPECT_EQ(test::StateDigest(restored, kMaxTimestamp),
            test::StateDigest(run.primary->db, ts));
  std::filesystem::remove(path);
}

TEST(CheckpointTest, CapturesTombstones) {
  auto primary = test::Primary::Mvtso();
  const TableId table =
      workload::SyntheticWorkload::CreateTable(&primary->db);
  ASSERT_TRUE(primary->engine
                  ->ExecuteWithRetry([&](txn::Txn& txn) {
                    Status st =
                        txn.Insert(table, 1, workload::EncodeIntValue(1));
                    if (!st.ok()) return st;
                    return txn.Insert(table, 2, workload::EncodeIntValue(2));
                  })
                  .ok());
  ASSERT_TRUE(primary->engine
                  ->ExecuteWithRetry(
                      [&](txn::Txn& txn) { return txn.Delete(table, 1); })
                  .ok());

  const std::string path = TempPath("c5_ckpt_tombstone.ckpt");
  ASSERT_TRUE(
      storage::WriteCheckpoint(primary->db, kMaxTimestamp, path).ok());
  storage::Database restored;
  workload::SyntheticWorkload::CreateTable(&restored);
  Timestamp ts = 0;
  ASSERT_TRUE(storage::LoadCheckpoint(&restored, path, &ts).ok());

  const auto guard = restored.epochs().Enter();
  const storage::Version* v1 = restored.ReadKeyAt(table, 1, kMaxTimestamp);
  ASSERT_NE(v1, nullptr);
  EXPECT_TRUE(v1->deleted) << "tombstone lost";
  const storage::Version* v2 = restored.ReadKeyAt(table, 2, kMaxTimestamp);
  ASSERT_NE(v2, nullptr);
  EXPECT_FALSE(v2->deleted);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, PersistsBindingTimestamps) {
  // A key whose row id changed (delete + re-insert): the checkpointed index
  // binding must carry its timestamp, so post-restore redelivery of the
  // OLD row's records cannot rebind the key to the dead row.
  storage::Database db;
  const TableId table = db.CreateTable("kv");
  db.table(table).EnsureRow(0);
  db.table(table).EnsureRow(1);
  // Row 0: created at ts 10, deleted at ts 20. Row 1: re-insert at ts 30.
  db.table(table).InstallCommitted(0, 10, "old");
  db.table(table).InstallCommitted(0, 20, "", /*deleted=*/true);
  db.table(table).InstallCommitted(1, 30, "new");
  db.index(table).UpsertIfNewer(/*key=*/7, /*row=*/0, /*ts=*/10);
  db.index(table).UpsertIfNewer(/*key=*/7, /*row=*/1, /*ts=*/30);

  const std::string path = TempPath("c5_ckpt_binding_ts.ckpt");
  ASSERT_TRUE(storage::WriteCheckpoint(db, kMaxTimestamp, path).ok());
  storage::Database restored;
  restored.CreateTable("kv");
  Timestamp ts = 0;
  ASSERT_TRUE(storage::LoadCheckpoint(&restored, path, &ts).ok());

  const auto binding = restored.index(table).LookupWithTs(7);
  ASSERT_TRUE(binding.has_value());
  EXPECT_EQ(binding->first, 1u);
  EXPECT_EQ(binding->second, 30u);
  // Redelivered old-row creating record (at-least-once delivery after the
  // restore) must lose against the persisted newest-ts binding.
  EXPECT_FALSE(restored.index(table).UpsertIfNewer(7, 0, 10));
  EXPECT_EQ(*restored.index(table).Lookup(7), 1u);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, CorruptionIsDetected) {
  auto run = test::RunSyntheticPrimary(false, 2, 50);
  const std::string path = TempPath("c5_ckpt_corrupt.ckpt");
  ASSERT_TRUE(
      storage::WriteCheckpoint(run.primary->db, kMaxTimestamp, path).ok());

  // Flip a byte in the middle.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 100, SEEK_SET);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  storage::Database restored;
  workload::SyntheticWorkload::CreateTable(&restored);
  Timestamp ts = 0;
  EXPECT_EQ(storage::LoadCheckpoint(&restored, path, &ts).code(),
            StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, SchemaMismatchRejected) {
  auto run = test::RunSyntheticPrimary(false, 2, 20);
  const std::string path = TempPath("c5_ckpt_schema.ckpt");
  ASSERT_TRUE(
      storage::WriteCheckpoint(run.primary->db, kMaxTimestamp, path).ok());
  storage::Database wrong;  // zero tables
  Timestamp ts = 0;
  EXPECT_EQ(storage::LoadCheckpoint(&wrong, path, &ts).code(),
            StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

// The full recovery loop: a backup applies a prefix and checkpoints at its
// visible snapshot; the process dies (all in-memory state lost); a new
// process loads the checkpoint and resumes the ARCHIVED log (read back
// through the wire format) from the checkpoint timestamp. Final state must
// equal the primary's.
TEST(CheckpointTest, CheckpointPlusArchiveTailRecoversExactState) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/4,
                                       /*txns_per_client=*/150);
  const std::string archive_path = TempPath("c5_recovery.log");
  const std::string ckpt_path = TempPath("c5_recovery.ckpt");

  // The shipping relay archives every segment.
  {
    log::LogFileWriter writer;
    ASSERT_TRUE(writer.Open(archive_path).ok());
    for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
      ASSERT_TRUE(writer.Append(*run.log.segment(s)).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }

  // First incarnation: applies ~60% of the log, checkpoints, dies.
  Timestamp ckpt_ts = 0;
  {
    storage::Database backup;
    workload::SyntheticWorkload::CreateTable(&backup);
    run.log.ResetReplayState();
    struct Partial : log::SegmentSource {
      log::Log* log;
      std::size_t count, pos = 0;
      Partial(log::Log* l, std::size_t c) : log(l), count(c) {}
      log::LogSegment* Next() override {
        return pos < count ? log->segment(pos++) : nullptr;
      }
    } prefix(&run.log, run.log.NumSegments() * 3 / 5);
    auto replica = MakeReplica(ProtocolKind::kC5, &backup,
                               {.num_workers = 4});
    replica->Start(&prefix);
    replica->WaitUntilCaughtUp();
    const Timestamp visible = replica->VisibleTimestamp();
    ASSERT_TRUE(storage::WriteCheckpoint(backup, visible, ckpt_path).ok());
    ckpt_ts = visible;
    replica->Stop();
    // `backup` is destroyed here: the crash.
  }
  ASSERT_GT(ckpt_ts, 0u);
  ASSERT_LT(ckpt_ts, run.log.MaxTimestamp());

  // Second incarnation: fresh process state.
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  Timestamp resume_ts = 0;
  ASSERT_TRUE(
      storage::LoadCheckpoint(&backup, ckpt_path, &resume_ts).ok());
  EXPECT_EQ(resume_ts, ckpt_ts);

  log::ReadLogResult archive;
  ASSERT_TRUE(log::ReadLogFile(archive_path, &archive).ok());
  ASSERT_TRUE(archive.clean_end);

  ha::ResumeSegmentSource resume(&archive.log, resume_ts);
  auto replica = MakeReplica(ProtocolKind::kC5, &backup, {.num_workers = 4});
  replica->Start(&resume);
  replica->WaitUntilCaughtUp();
  EXPECT_EQ(replica->VisibleTimestamp(), run.log.MaxTimestamp());
  replica->Stop();
  EXPECT_GT(resume.skipped(), 0u) << "checkpoint should skip covered work";

  EXPECT_EQ(test::StateDigest(backup, kMaxTimestamp),
            test::StateDigest(run.primary->db, kMaxTimestamp));
  std::filesystem::remove(archive_path);
  std::filesystem::remove(ckpt_path);
}

// Checkpoints taken WHILE workers apply later writes: the multi-version
// store keeps the snapshot at ts stable, so a checkpoint at the visible
// snapshot is identical to one taken after quiescing.
TEST(CheckpointTest, ConcurrentCheckpointMatchesQuiescedCheckpoint) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/2,
                                       /*txns_per_client=*/200);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  auto replica = MakeReplica(ProtocolKind::kC5, &backup, {.num_workers = 4});
  replica->Start(&source);

  // Spin until some progress, then checkpoint at the then-visible snapshot
  // while replay continues.
  Timestamp mid = 0;
  while ((mid = replica->VisibleTimestamp()) == 0) {
  }
  const std::string live_path = TempPath("c5_ckpt_live.ckpt");
  ASSERT_TRUE(storage::WriteCheckpoint(backup, mid, live_path).ok());

  replica->WaitUntilCaughtUp();
  replica->Stop();

  // Quiesced reference at the same snapshot.
  const std::string ref_path = TempPath("c5_ckpt_ref.ckpt");
  ASSERT_TRUE(storage::WriteCheckpoint(backup, mid, ref_path).ok());

  storage::Database from_live, from_ref;
  workload::SyntheticWorkload::CreateTable(&from_live);
  workload::SyntheticWorkload::CreateTable(&from_ref);
  Timestamp ts1 = 0, ts2 = 0;
  ASSERT_TRUE(storage::LoadCheckpoint(&from_live, live_path, &ts1).ok());
  ASSERT_TRUE(storage::LoadCheckpoint(&from_ref, ref_path, &ts2).ok());
  EXPECT_EQ(ts1, ts2);
  EXPECT_EQ(test::StateDigest(from_live, kMaxTimestamp),
            test::StateDigest(from_ref, kMaxTimestamp));
  std::filesystem::remove(live_path);
  std::filesystem::remove(ref_path);
}

}  // namespace
}  // namespace c5

