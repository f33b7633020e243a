// Shipping-transport comparison: the same seeded log replayed through a C5
// backup fed (a) in process from the prebuilt archive, (b) over real
// loopback TCP via net/ShipServer -> SocketSegmentSource, plus (c) a
// raw-drain lane (no replay) isolating transport throughput. The spread
// between (a) and (b) is the full cost of leaving the process: syscalls,
// kernel buffering, framing reassembly, and the decode-per-frame copy.
//
//   bench_socket_ship [--quick]
//
// Env knobs: C5_BENCH_SCALE, C5_BENCH_WORKERS (bench_util.h).

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "log/segment_source.h"
#include "log/wire.h"
#include "net/ship_server.h"
#include "net/socket_segment_source.h"
#include "workload/seeded_log.h"

namespace c5 {
namespace {

// ReplayLog's twin for an arbitrary source (it hard-codes offline).
bench::ReplayResult ReplayFromSource(log::SegmentSource* source,
                                     int workers) {
  storage::Database backup;
  for (const std::string& name : workload::SeededSchema()) {
    backup.CreateTable(name);
  }
  auto replica = core::MakeReplica(core::ProtocolKind::kC5, &backup,
                                   {.num_workers = workers});
  Stopwatch sw;
  replica->Start(source);
  replica->WaitUntilCaughtUp();
  bench::ReplayResult result;
  result.seconds = sw.ElapsedSeconds();
  replica->Stop();
  result.txns = replica->stats().applied_txns.load();
  result.writes = replica->stats().applied_writes.load();
  return result;
}

void Run(bool quick) {
  bench::InitBenchRuntime();
  const int workers = bench::DefaultWorkers();

  workload::SeededLogSpec spec;
  spec.seed = 99;
  spec.clients = 4;
  spec.txns_per_client =
      quick ? 500 : bench::Scaled(100000) / 4;
  spec.keyspace = 4096;
  spec.segment_capacity = 256;
  log::Log log = workload::BuildSeededLog(spec);

  std::uint64_t wire_bytes = 0;
  {
    std::string frame;
    for (std::size_t i = 0; i < log.NumSegments(); ++i) {
      frame.clear();
      log::EncodeSegment(*log.segment(i), &frame);
      wire_bytes += frame.size();
    }
  }

  bench::PrintHeader("Shipping transport: in-process vs loopback TCP");
  bench::PrintRow("%zu segments, %zu records, %d replay workers",
                  log.NumSegments(), log.NumRecords(), workers);
  bench::PrintRow("%-22s %14s %12s", "lane", "writes/s", "MB/s");

  log.ResetReplayState();
  log::OfflineSegmentSource offline_source(&log);
  const auto offline = ReplayFromSource(&offline_source, workers);
  bench::PrintRow("%-22s %14.0f %12.1f", "in-process (offline)",
                  offline.WritesPerSec(),
                  static_cast<double>(wire_bytes) / 1e6 /
                      (offline.seconds > 0 ? offline.seconds : 1));

  {
    net::ShipServer server;
    if (!server.Start().ok()) {
      std::fprintf(stderr, "listen failed\n");
      return;
    }
    log.ResetReplayState();
    server.PublishLog(log);
    server.FinishLog();
    net::SocketSegmentSource::Options so;
    so.port = server.port();
    net::SocketSegmentSource source(std::move(so));
    const auto socket = ReplayFromSource(&source, workers);
    bench::PrintRow("%-22s %14.0f %12.1f", "loopback TCP (replay)",
                    socket.WritesPerSec(),
                    static_cast<double>(
                        source.stats().bytes_received.load()) /
                        1e6 / (socket.seconds > 0 ? socket.seconds : 1));
    server.Stop();
  }

  {
    net::ShipServer server;
    if (!server.Start().ok()) {
      std::fprintf(stderr, "listen failed\n");
      return;
    }
    log.ResetReplayState();
    server.PublishLog(log);
    server.FinishLog();
    net::SocketSegmentSource::Options so;
    so.port = server.port();
    net::SocketSegmentSource source(std::move(so));
    Stopwatch sw;
    std::uint64_t frames = 0;
    while (source.Next() != nullptr) ++frames;
    const double secs = sw.ElapsedSeconds();
    bench::PrintRow("%-22s %14s %12.1f", "loopback TCP (drain)", "-",
                    static_cast<double>(
                        source.stats().bytes_received.load()) /
                        1e6 / (secs > 0 ? secs : 1));
    server.Stop();
  }
}

}  // namespace
}  // namespace c5

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  c5::Run(quick);
  return 0;
}
