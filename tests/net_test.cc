// The socket transport end to end: a backup fed by SocketSegmentSource over
// real loopback TCP must replay bit-for-bit identically to the in-process
// path, survive a corrupted frame through NAK + resync + retransmit, and
// survive a mid-stream server disconnect through reconnect + resume. Every
// listener binds port 0 (net::TcpListener's ephemeral allocation), so
// parallel ctest lanes never collide.

#include "net/socket_segment_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "api/cluster.h"
#include "core/protocol_factory.h"
#include "log/segment_source.h"
#include "net/ship_protocol.h"
#include "net/ship_server.h"
#include "net/socket.h"
#include "tests/test_util.h"
#include "workload/seeded_log.h"
#include "workload/synthetic.h"

namespace c5 {
namespace {

// Replays `source` through a fresh C5 replica over the seeded schema and
// returns the final state digest.
std::uint64_t ReplayDigest(log::SegmentSource* source) {
  storage::Database db;
  for (const std::string& name : workload::SeededSchema()) {
    db.CreateTable(name);
  }
  auto replica = core::MakeReplica(core::ProtocolKind::kC5, &db,
                                   {.num_workers = 4});
  replica->Start(source);
  replica->WaitUntilCaughtUp();
  replica->Stop();
  return test::StateDigest(db, kMaxTimestamp);
}

// The oracle: the same log replayed entirely in process.
std::uint64_t InProcessDigest(log::Log* log) {
  log::OfflineSegmentSource source(log);
  return ReplayDigest(&source);
}

workload::SeededLogSpec TestSpec(std::uint64_t seed) {
  workload::SeededLogSpec spec;
  spec.seed = seed;
  spec.clients = 3;
  spec.txns_per_client = 120;
  spec.keyspace = 128;
  spec.segment_capacity = 32;  // many frames = many fault windows
  return spec;
}

TEST(NetTest, SocketRoundTripReplaysBitForBit) {
  auto spec = TestSpec(test::TestSeed(11));
  log::Log log = workload::BuildSeededLog(spec);
  ASSERT_GT(log.NumSegments(), 4u);
  const std::uint64_t want = InProcessDigest(&log);

  net::ShipServer server;
  ASSERT_TRUE(server.Start().ok());
  server.PublishLog(log);
  server.FinishLog();

  net::SocketSegmentSource::Options so;
  so.port = server.port();
  net::SocketSegmentSource source(std::move(so));
  EXPECT_EQ(ReplayDigest(&source), want)
      << "socket-fed replay diverged from the in-process path";

  EXPECT_EQ(source.stats().connects.load(), 1u);
  EXPECT_EQ(source.stats().naks_sent.load(), 0u);
  EXPECT_EQ(source.stats().reconnects.load(), 0u);
  EXPECT_GT(source.stats().segments_delivered.load(), 0u);
  EXPECT_EQ(source.expected_seq(), server.end_seq());
  server.Stop();
}

TEST(NetTest, CorruptFrameRecoversViaNakAndRetransmit) {
  auto spec = TestSpec(test::TestSeed(13));
  log::Log log = workload::BuildSeededLog(spec);
  const std::uint64_t want = InProcessDigest(&log);

  net::ShipServer::Options options;
  options.corrupt_frame = 2;  // flip a payload byte of the 3rd frame sent
  net::ShipServer server(options);
  ASSERT_TRUE(server.Start().ok());
  server.PublishLog(log);
  server.FinishLog();

  net::SocketSegmentSource::Options so;
  so.port = server.port();
  net::SocketSegmentSource source(std::move(so));
  EXPECT_EQ(ReplayDigest(&source), want)
      << "NAK-recovered replay diverged from the in-process path";

  EXPECT_GE(source.stats().decode_rejects.load(), 1u);
  EXPECT_GE(source.stats().naks_sent.load(), 1u);
  EXPECT_GE(source.stats().resyncs_seen.load(), 1u);
  bool server_saw_nak = false;
  for (const auto& c : server.ClientStatsSnapshot()) {
    server_saw_nak |= c.naks_received >= 1 && c.resyncs_sent >= 1 &&
                      c.retransmit_segments >= 1;
  }
  EXPECT_TRUE(server_saw_nak)
      << "server never recorded the NAK / resync / retransmission";
  server.Stop();
}

TEST(NetTest, MidStreamDisconnectRecoversViaReconnect) {
  auto spec = TestSpec(test::TestSeed(17));
  log::Log log = workload::BuildSeededLog(spec);
  ASSERT_GT(log.NumSegments(), 6u);
  const std::uint64_t want = InProcessDigest(&log);

  net::ShipServer::Options options;
  options.drop_after_frames = 4;  // hard-close the first conn mid-stream
  net::ShipServer server(options);
  ASSERT_TRUE(server.Start().ok());
  server.PublishLog(log);
  server.FinishLog();

  net::SocketSegmentSource::Options so;
  so.port = server.port();
  so.backoff_initial = std::chrono::milliseconds(1);
  net::SocketSegmentSource source(std::move(so));
  EXPECT_EQ(ReplayDigest(&source), want)
      << "reconnect-resumed replay diverged from the in-process path";
  EXPECT_GE(source.stats().reconnects.load(), 1u);
  EXPECT_EQ(source.expected_seq(), server.end_seq());
  server.Stop();
}

TEST(NetTest, SubscribeFromMidStreamResumes) {
  auto spec = TestSpec(test::TestSeed(19));
  log::Log log = workload::BuildSeededLog(spec);
  ASSERT_GT(log.NumSegments(), 3u);

  net::ShipServer server;
  ASSERT_TRUE(server.Start().ok());
  server.PublishLog(log);
  server.FinishLog();

  // Resume from the 3rd segment's base: everything before it must not be
  // delivered (the restarted-backup path — it already applied that prefix).
  const std::uint64_t resume = log.segment(2)->base_seq();
  net::SocketSegmentSource::Options so;
  so.port = server.port();
  so.start_seq = resume;
  net::SocketSegmentSource source(std::move(so));
  std::uint64_t first_base = kMaxTimestamp;
  std::size_t delivered = 0;
  for (log::LogSegment* seg = source.Next(); seg != nullptr;
       seg = source.Next()) {
    first_base = std::min(first_base, seg->base_seq());
    ++delivered;
  }
  EXPECT_EQ(first_base, resume);
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(source.expected_seq(), server.end_seq());
  server.Stop();
}

TEST(NetTest, ConnectFailureGivesUpAfterMaxAttempts) {
  // A listener that never answers: bind an ephemeral port, then shut the
  // listener so connects are refused.
  net::TcpListener listener;
  ASSERT_TRUE(listener.Listen(0).ok());
  const std::uint16_t dead_port = listener.port();
  listener.Shutdown();

  net::SocketSegmentSource::Options so;
  so.port = dead_port;
  so.backoff_initial = std::chrono::milliseconds(1);
  so.backoff_max = std::chrono::milliseconds(2);
  so.max_connect_attempts = 3;
  net::SocketSegmentSource source(std::move(so));
  EXPECT_EQ(source.Next(), nullptr);
  EXPECT_FALSE(source.error().empty());
}

TEST(NetTest, ClusterViaSocketBackupMatchesInProcessBackup) {
  // One cluster, two backups: backup 0 on the in-process channel, backup 1
  // subscribed over real TCP. Same log, same protocol, two transports —
  // final states must be identical.
  ClusterOptions options;
  options.WithWorkers(2).WithSegmentRecords(64);
  options.AddBackup({.protocol = core::ProtocolKind::kC5});
  options.AddBackup({.protocol = core::ProtocolKind::kC5, .via_socket = true});
  Cluster cluster(options);
  const TableId t = cluster.CreateTable("kv");
  cluster.Start();
  ASSERT_NE(cluster.ship_server(), nullptr);
  ASSERT_NE(cluster.server_port(), 0u);

  for (std::uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(cluster
                    .ExecuteWithRetry([&](txn::Txn& txn) {
                      return txn.Put(t, k % 97,
                                     workload::EncodeIntValue(k));
                    })
                    .ok());
  }
  cluster.StopPrimary();
  cluster.WaitForBackups();

  EXPECT_EQ(test::StateDigest(cluster.backup(1).db(), kMaxTimestamp),
            test::StateDigest(cluster.backup(0).db(), kMaxTimestamp))
      << "TCP-fed backup diverged from the channel-fed backup";

  bool served = false;
  for (const auto& c : cluster.ship_server()->ClientStatsSnapshot()) {
    served |= c.segments_sent > 0;
  }
  EXPECT_TRUE(served) << "ship server never streamed a segment";
  cluster.Shutdown();
}

// Polls `pred` until it holds or ~5 s pass (server threads act on acks
// asynchronously).
template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// Content fingerprint of a segment's records, for comparing a delivered
// segment with the one published.
std::uint64_t Fingerprint(const log::LogSegment& seg) {
  std::uint64_t h = 0;
  for (const log::LogRecord& r : seg.records()) {
    h = h * 31 + r.commit_ts * 7 + r.key + r.value.size();
  }
  return h;
}

TEST(NetTest, AckedStreamRetainsOnlyTheInFlightWindow) {
  auto spec = TestSpec(test::TestSeed(23));
  spec.txns_per_client = 600;
  spec.segment_capacity = 8;
  log::Log log = workload::BuildSeededLog(spec);
  ASSERT_GT(log.NumSegments(), 300u);

  net::ShipServer server;
  ASSERT_TRUE(server.Start().ok());
  net::SocketSegmentSource::Options so;
  so.port = server.port();
  net::SocketSegmentSource source(std::move(so));

  // A live stream: publish one segment, consume it, release it. Each
  // Next() acks the previous release, so the server frees as it goes:
  // after Next() returned segment i, only frame i is still unacked.
  for (std::size_t i = 0; i < log.NumSegments(); ++i) {
    server.PublishSegment(*log.segment(i));
    log::LogSegment* seg = source.Next();
    ASSERT_NE(seg, nullptr) << source.error();
    EXPECT_EQ(seg->base_seq(), log.segment(i)->base_seq());
    source.Release(seg->base_seq() + seg->size());
    EXPECT_LE(source.retained_segments(), 1u);
    if (i % 50 == 49) {
      ASSERT_TRUE(Eventually([&] { return server.retained_frames() <= 1; }))
          << server.retained_frames() << " frames retained after " << i + 1
          << ": retention grows with the stream, not the in-flight window";
    }
  }
  server.FinishLog();
  EXPECT_EQ(source.Next(), nullptr);  // sends the last ack, reads END
  EXPECT_TRUE(source.error().empty()) << source.error();
  EXPECT_TRUE(Eventually([&] { return server.retained_frames() == 0; }))
      << server.retained_frames() << " frames still retained after the "
      << "last ack";
  EXPECT_EQ(server.retained_from_seq(), server.end_seq());
  EXPECT_EQ(server.retained_bytes(), 0u);
  EXPECT_EQ(server.frames_published(), log.NumSegments());
  EXPECT_GT(source.stats().acks_sent.load(), 0u);
  server.Stop();
}

TEST(NetTest, LateSubscriberBelowRetentionFloorGetsBehindError) {
  auto spec = TestSpec(test::TestSeed(29));
  log::Log log = workload::BuildSeededLog(spec);
  ASSERT_GT(log.NumSegments(), 4u);

  net::ShipServer server;
  ASSERT_TRUE(server.Start().ok());
  server.PublishLog(log);
  server.FinishLog();

  // Subscriber A drains and releases everything; its acks free the archive.
  net::SocketSegmentSource::Options so;
  so.port = server.port();
  net::SocketSegmentSource a(so);
  while (log::LogSegment* seg = a.Next()) {
    a.Release(seg->base_seq() + seg->size());
  }
  ASSERT_TRUE(a.error().empty()) << a.error();
  ASSERT_TRUE(Eventually([&] { return server.retained_from_seq() > 0; }));

  // Subscriber B asks for seq 0, which is gone: a clear error, no gap.
  net::SocketSegmentSource b(so);
  EXPECT_EQ(b.Next(), nullptr);
  EXPECT_NE(b.error().find("behind retention"), std::string::npos)
      << b.error();
  EXPECT_EQ(b.stats().segments_delivered.load(), 0u);
  std::uint64_t behind = 0;
  for (const auto& c : server.ClientStatsSnapshot()) behind += c.behind_sent;
  EXPECT_EQ(behind, 1u);
  server.Stop();
}

TEST(NetTest, NakInsideRetainedWindowStillRecovers) {
  auto spec = TestSpec(test::TestSeed(31));
  log::Log log = workload::BuildSeededLog(spec);
  ASSERT_GT(log.NumSegments(), 8u);

  net::ShipServer::Options options;
  options.corrupt_frame = 6;  // after a few acks have moved the floor
  net::ShipServer server(options);
  ASSERT_TRUE(server.Start().ok());
  server.PublishLog(log);
  server.FinishLog();

  net::SocketSegmentSource::Options so;
  so.port = server.port();
  net::SocketSegmentSource source(std::move(so));
  // Every record arrives exactly once in seq order, content intact, while
  // releases (and so acks) run ahead of the retransmission.
  std::size_t next = 0;
  while (log::LogSegment* seg = source.Next()) {
    ASSERT_LT(next, log.NumSegments());
    EXPECT_EQ(seg->base_seq(), log.segment(next)->base_seq());
    EXPECT_EQ(Fingerprint(*seg), Fingerprint(*log.segment(next)));
    source.Release(seg->base_seq() + seg->size());
    ++next;
  }
  EXPECT_TRUE(source.error().empty()) << source.error();
  EXPECT_EQ(next, log.NumSegments());
  EXPECT_GE(source.stats().naks_sent.load(), 1u);
  EXPECT_GE(source.stats().resyncs_seen.load(), 1u);
  EXPECT_GT(source.stats().acks_sent.load(), 0u);
  std::uint64_t behind = 0;
  for (const auto& c : server.ClientStatsSnapshot()) behind += c.behind_sent;
  EXPECT_EQ(behind, 0u);
  EXPECT_TRUE(Eventually([&] { return server.retained_frames() == 0; }));
  server.Stop();
}

TEST(NetTest, ShipProtocolCodecRoundTrips) {
  std::string bytes;
  net::EncodeRequest({net::RequestType::kNak, 0xDEADBEEFull}, &bytes);
  ASSERT_EQ(bytes.size(), net::kRequestBytes);
  net::Request req;
  bool malformed = true;
  ASSERT_TRUE(net::DecodeRequest(bytes, &req, &malformed));
  EXPECT_EQ(req.type, net::RequestType::kNak);
  EXPECT_EQ(req.arg, 0xDEADBEEFull);

  // Torn vs malformed are distinct verdicts.
  EXPECT_FALSE(net::DecodeRequest(
      std::string_view(bytes).substr(0, 5), &req, &malformed));
  EXPECT_FALSE(malformed);
  std::string bad = bytes;
  bad[0] = 'X';
  EXPECT_FALSE(net::DecodeRequest(bad, &req, &malformed));
  EXPECT_TRUE(malformed);

  // The retention vocabulary: kAck requests and behind-retention frames.
  bytes.clear();
  net::EncodeRequest({net::RequestType::kAck, 777}, &bytes);
  ASSERT_TRUE(net::DecodeRequest(bytes, &req, &malformed));
  EXPECT_EQ(req.type, net::RequestType::kAck);
  EXPECT_EQ(req.arg, 777u);
  bad = bytes;
  bad[4] = 4;  // one past the last request type
  EXPECT_FALSE(net::DecodeRequest(bad, &req, &malformed));
  EXPECT_TRUE(malformed);
  std::string behind;
  net::EncodeControl(net::kBehindMagic, 99, &behind);
  ASSERT_EQ(behind.size(), net::kControlBytes);
  std::uint64_t from = 0;
  ASSERT_TRUE(net::DecodeControl(behind, net::kBehindMagic, &from));
  EXPECT_EQ(from, 99u);
  EXPECT_FALSE(net::DecodeControl(behind, net::kResyncMagic, &from));

  std::string control;
  net::EncodeControl(net::kEndMagic, 424242, &control);
  ASSERT_EQ(control.size(), net::kControlBytes);
  std::uint64_t seq = 0;
  ASSERT_TRUE(net::DecodeControl(control, net::kEndMagic, &seq));
  EXPECT_EQ(seq, 424242u);
  // A corrupted seq fails the control CRC (resync scanning depends on it).
  std::string corrupt = control;
  corrupt[6] = static_cast<char>(corrupt[6] ^ 0x01);
  EXPECT_FALSE(net::DecodeControl(corrupt, net::kEndMagic, &seq));
}

}  // namespace
}  // namespace c5
