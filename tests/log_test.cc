#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "core/protocol_factory.h"
#include "log/log_collector.h"
#include "log/log_segment.h"
#include "log/segment_source.h"
#include "storage/database.h"
#include "tests/test_util.h"

namespace c5::log {
namespace {

std::vector<LogRecord> MakeTxn(Timestamp ts, std::initializer_list<RowId> rows) {
  std::vector<LogRecord> records;
  for (const RowId r : rows) {
    LogRecord rec;
    rec.table = 0;
    rec.row = r;
    rec.key = r;
    rec.commit_ts = ts;
    rec.value = test::InternValue("v" + std::to_string(ts));
    records.push_back(std::move(rec));
  }
  records.back().last_in_txn = true;
  return records;
}

TEST(LogSegmentTest, AppendAndTimestamps) {
  LogSegment seg(0);
  EXPECT_TRUE(seg.empty());
  for (auto& r : MakeTxn(5, {1, 2})) seg.Append(std::move(r));
  EXPECT_EQ(seg.size(), 2u);
  EXPECT_EQ(seg.MinTimestamp(), 5u);
  EXPECT_EQ(seg.MaxTimestamp(), 5u);
}

TEST(LogSegmentTest, PreprocessedFlagAndReset) {
  LogSegment seg(0);
  for (auto& r : MakeTxn(5, {1})) seg.Append(std::move(r));
  EXPECT_FALSE(seg.preprocessed());
  seg.record(0).prev_ts = 3;
  seg.MarkPreprocessed();
  EXPECT_TRUE(seg.preprocessed());
  seg.ResetReplayState();
  EXPECT_FALSE(seg.preprocessed());
  EXPECT_EQ(seg.record(0).prev_ts, kInvalidTimestamp);
}

TEST(LogTest, CountsRecordsAndTransactions) {
  Log log;
  auto seg = std::make_unique<LogSegment>(0);
  for (auto& r : MakeTxn(1, {1, 2})) seg->Append(std::move(r));
  for (auto& r : MakeTxn(2, {3})) seg->Append(std::move(r));
  log.AppendSegment(std::move(seg));
  EXPECT_EQ(log.NumRecords(), 3u);
  EXPECT_EQ(log.CountTransactions(), 2u);
  EXPECT_EQ(log.MaxTimestamp(), 2u);
}

TEST(PerThreadCollectorTest, CoalesceSortsByCommitTimestamp) {
  PerThreadLogCollector collector(1024);
  // Log out of order from several threads.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&collector, t] {
      for (int i = 0; i < 100; ++i) {
        collector.LogCommit(MakeTxn(static_cast<Timestamp>(t + 4 * i + 1),
                                    {static_cast<RowId>(t)}));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(collector.BufferedTxns(), 400u);

  Log log = collector.Coalesce();
  EXPECT_EQ(log.CountTransactions(), 400u);
  EXPECT_TRUE(test::LogIsWellFormed(log));
  EXPECT_EQ(collector.BufferedTxns(), 0u);
}

TEST(PerThreadCollectorTest, TransactionsNeverSpanSegments) {
  PerThreadLogCollector collector(/*segment_records=*/10);
  for (Timestamp ts = 1; ts <= 30; ++ts) {
    collector.LogCommit(MakeTxn(ts, {1, 2, 3, 4, 5, 6, 7}));
  }
  Log log = collector.Coalesce();
  EXPECT_GT(log.NumSegments(), 1u);
  EXPECT_TRUE(test::LogIsWellFormed(log));
}

TEST(PerThreadCollectorTest, OversizedTransactionGetsOwnSegment) {
  PerThreadLogCollector collector(/*segment_records=*/4);
  collector.LogCommit(
      MakeTxn(1, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));  // bigger than a segment
  collector.LogCommit(MakeTxn(2, {11}));
  Log log = collector.Coalesce();
  EXPECT_TRUE(test::LogIsWellFormed(log));
  EXPECT_EQ(log.NumRecords(), 11u);
}

TEST(OfflineSourceTest, IteratesSegmentsInOrder) {
  PerThreadLogCollector collector(2);
  for (Timestamp ts = 1; ts <= 10; ++ts) collector.LogCommit(MakeTxn(ts, {ts}));
  Log log = collector.Coalesce();

  OfflineSegmentSource source(&log);
  Timestamp prev = 0;
  std::size_t segments = 0;
  while (LogSegment* seg = source.Next()) {
    EXPECT_GE(seg->MinTimestamp(), prev);
    prev = seg->MaxTimestamp();
    ++segments;
  }
  EXPECT_EQ(segments, log.NumSegments());
  EXPECT_EQ(source.Next(), nullptr);  // stays exhausted
}

TEST(OnlineCollectorTest, ShipsFullSegmentsInOrder) {
  OnlineLogCollector collector(/*segment_records=*/4, /*channel_capacity=*/64);
  for (Timestamp ts = 1; ts <= 10; ++ts) collector.LogCommit(MakeTxn(ts, {ts}));
  collector.Finish();

  ChannelSegmentSource source(&collector.channel());
  std::uint64_t seen = 0;
  Timestamp prev = 0;
  std::uint64_t expected_base = 0;
  while (LogSegment* seg = source.Next()) {
    EXPECT_EQ(seg->base_seq(), expected_base);
    expected_base += seg->size();
    EXPECT_GE(seg->MinTimestamp(), prev);
    prev = seg->MaxTimestamp();
    seen += seg->size();
  }
  EXPECT_EQ(seen, 10u);
}

TEST(OnlineCollectorTest, FlushShipsPartialSegment) {
  OnlineLogCollector collector(/*segment_records=*/1000);
  collector.LogCommit(MakeTxn(1, {1}));
  EXPECT_EQ(collector.ShippedSegments(), 0u);
  collector.Flush();
  EXPECT_EQ(collector.ShippedSegments(), 1u);
  collector.Finish();
  ChannelSegmentSource source(&collector.channel());
  LogSegment* seg = source.Next();
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->size(), 1u);
  EXPECT_EQ(source.Next(), nullptr);
}

TEST(OnlineCollectorTest, ConcurrentProducersSerializeCleanly) {
  OnlineLogCollector collector(/*segment_records=*/16);
  std::vector<std::thread> producers;
  std::atomic<Timestamp> clock{1};
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        const Timestamp ts = clock.fetch_add(1);
        collector.LogCommit(MakeTxn(ts, {ts, ts + 100000}));
      }
    });
  }
  std::uint64_t records = 0;
  std::thread consumer([&] {
    ChannelSegmentSource source(&collector.channel());
    while (LogSegment* seg = source.Next()) records += seg->size();
  });
  for (auto& p : producers) p.join();
  collector.Finish();
  consumer.join();
  EXPECT_EQ(records, 4u * 500u * 2u);
}

TEST(OnlineCollectorTest, LaneReleaseFreesStoredSegments) {
  OnlineLogCollector collector(/*segment_records=*/4, /*channel_capacity=*/64);
  SpscQueue<LogSegment*>* second = collector.AddSubscriber();
  auto lane0 = collector.MakeSource(&collector.channel());
  auto lane1 = collector.MakeSource(second);
  for (Timestamp ts = 1; ts <= 12; ++ts) collector.LogCommit(MakeTxn(ts, {ts}));
  collector.Finish();
  ASSERT_EQ(collector.ShippedSegments(), 3u);
  EXPECT_EQ(collector.RetainedSegments(), 6u);  // 3 segments x 2 lanes

  // Lane 1 holds views over lane 0's value bytes: releasing it first must
  // leave lane 0's records (and the shared bytes) intact.
  std::vector<LogSegment*> got0, got1;
  while (LogSegment* seg = lane0->Next()) got0.push_back(seg);
  while (LogSegment* seg = lane1->Next()) got1.push_back(seg);
  ASSERT_EQ(got0.size(), 3u);
  ASSERT_EQ(got1.size(), 3u);
  lane1->Release(8);  // the first two segments end at 4 and 8
  EXPECT_EQ(collector.RetainedSegments(), 4u);
  lane1->Release(7);  // stale: nothing more
  EXPECT_EQ(collector.RetainedSegments(), 4u);
  EXPECT_EQ(got0[0]->record(0).value, "v1");
  EXPECT_EQ(got0[2]->record(3).value, "v12");
  lane0->Release(12);
  lane1->Release(12);
  EXPECT_EQ(collector.RetainedSegments(), 0u);
}

// A long in-process run: a C5 or C5-MyRocks backup that releases through
// its lane keeps the collector's store at the in-flight window, not at the
// length of the log.
class CollectorRetentionTest
    : public ::testing::TestWithParam<core::ProtocolKind> {};

TEST_P(CollectorRetentionTest, RetainedSegmentsStayBounded) {
  constexpr Timestamp kTxns = 12000;
  constexpr RowId kRows = 512;
  OnlineLogCollector collector(/*segment_records=*/16);
  storage::Database db;
  db.CreateTable("t");
  auto source = collector.MakeSource(&collector.channel());
  auto replica = core::MakeReplica(GetParam(), &db, {.num_workers = 2});
  replica->Start(source.get());

  std::uint64_t max_retained = 0;
  for (Timestamp ts = 1; ts <= kTxns; ++ts) {
    collector.LogCommit(MakeTxn(ts, {ts % kRows, (ts * 7 + 3) % kRows}));
    if (ts % 400 == 0) {
      // Pace the primary to the backup: retention is measured against a
      // backup that keeps up (its snapshotter publishes the apply floor
      // with each snapshot), so any growth is a leak, not a backlog.
      while (replica->VisibleTimestamp() + 64 < ts) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      max_retained = std::max(max_retained, collector.RetainedSegments());
    }
  }
  collector.Finish();
  replica->WaitUntilCaughtUp();
  replica->Stop();

  EXPECT_GT(collector.ShippedSegments(), 1000u);
  EXPECT_GT(replica->stats().released_segments.load(), 1000u);
  EXPECT_LT(max_retained, 200u)
      << "the collector kept shipped segments the backup had released";
  EXPECT_EQ(replica->VisibleTimestamp(), kTxns);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CollectorRetentionTest,
    ::testing::Values(core::ProtocolKind::kC5, core::ProtocolKind::kC5MyRocks),
    [](const ::testing::TestParamInfo<core::ProtocolKind>& info) {
      return info.param == core::ProtocolKind::kC5 ? "C5" : "C5MyRocks";
    });

TEST(LogTest, ResetReplayStateClearsAllSegments) {
  PerThreadLogCollector collector(4);
  for (Timestamp ts = 1; ts <= 10; ++ts) collector.LogCommit(MakeTxn(ts, {1}));
  Log log = collector.Coalesce();
  for (std::size_t i = 0; i < log.NumSegments(); ++i) {
    log.segment(i)->MarkPreprocessed();
    for (auto& rec : log.segment(i)->records()) rec.prev_ts = 99;
  }
  log.ResetReplayState();
  for (std::size_t i = 0; i < log.NumSegments(); ++i) {
    EXPECT_FALSE(log.segment(i)->preprocessed());
    for (auto& rec : log.segment(i)->records()) {
      EXPECT_EQ(rec.prev_ts, kInvalidTimestamp);
    }
  }
}

}  // namespace
}  // namespace c5::log
