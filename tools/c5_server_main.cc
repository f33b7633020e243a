// c5-server — a standalone process hosting one shard group's shipping
// server. Two modes:
//
//   Seeded mode (--seed, the default): builds the deterministic seeded log
//   (workload/seeded_log.h) and serves it to TCP subscribers. Because the
//   log is a pure function of the spec, a killed-and-restarted server with
//   the same flags serves the byte-identical stream — which is exactly what
//   the crash-recovery test needs: it SIGKILLs this process mid-stream,
//   starts a fresh one, and the subscriber resumes against the same
//   history.
//
//   Live mode (--live): runs a real single-primary Cluster with a listen
//   port, executes the same seeded workload THROUGH the engine while
//   shipping online, then finishes the log and keeps serving.
//
// Prints exactly one machine-readable line on stdout once the socket is
// bound:   PORT <n>
// (tests spawn the binary with --port 0 and read the ephemeral answer from
// this line). Everything else goes to stderr. On SIGTERM/SIGINT — or when
// --serve-ms elapses — it prints per-client shipping stats and exits 0.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "api/cluster.h"
#include "net/ship_server.h"
#include "workload/seeded_log.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true, std::memory_order_release); }

std::uint64_t ParseU64(const char* s) {
  return static_cast<std::uint64_t>(std::strtoull(s, nullptr, 10));
}

struct Args {
  c5::workload::SeededLogSpec spec;
  int port = 0;  // 0: ephemeral
  bool live = false;
  std::uint64_t send_delay_ms = 0;
  std::uint64_t serve_ms = 0;  // 0: until signalled
};

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--clients N] [--txns N] [--keyspace N]\n"
               "          [--segment-records N] [--port N] [--send-delay-ms N]\n"
               "          [--serve-ms N] [--live]\n",
               argv0);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(a, "--live") == 0) {
      args->live = true;
    } else if (std::strcmp(a, "--seed") == 0 && has_value) {
      args->spec.seed = ParseU64(argv[++i]);
    } else if (std::strcmp(a, "--clients") == 0 && has_value) {
      args->spec.clients = static_cast<int>(ParseU64(argv[++i]));
    } else if (std::strcmp(a, "--txns") == 0 && has_value) {
      args->spec.txns_per_client = ParseU64(argv[++i]);
    } else if (std::strcmp(a, "--keyspace") == 0 && has_value) {
      args->spec.keyspace = ParseU64(argv[++i]);
    } else if (std::strcmp(a, "--segment-records") == 0 && has_value) {
      args->spec.segment_capacity =
          static_cast<std::size_t>(ParseU64(argv[++i]));
    } else if (std::strcmp(a, "--port") == 0 && has_value) {
      args->port = static_cast<int>(ParseU64(argv[++i]));
    } else if (std::strcmp(a, "--send-delay-ms") == 0 && has_value) {
      args->send_delay_ms = ParseU64(argv[++i]);
    } else if (std::strcmp(a, "--serve-ms") == 0 && has_value) {
      args->serve_ms = ParseU64(argv[++i]);
    } else {
      PrintUsage(argv[0]);
      return false;
    }
  }
  return true;
}

void AnnouncePort(std::uint16_t port) {
  // The one stdout line a spawning test parses; flushed so a pipe reader
  // sees it before any serving happens.
  std::printf("PORT %u\n", static_cast<unsigned>(port));
  std::fflush(stdout);
}

void WaitUntilDone(const Args& args) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(args.serve_ms);
  while (!g_stop.load(std::memory_order_acquire)) {
    if (args.serve_ms > 0 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void PrintStats(const c5::net::ShipServer& server) {
  for (const auto& s : server.ClientStatsSnapshot()) {
    std::fprintf(stderr,
                 "client %llu: connected=%d from=%llu segments=%llu "
                 "bytes=%llu naks=%llu retransmits=%llu resyncs=%llu\n",
                 static_cast<unsigned long long>(s.client_id),
                 s.connected ? 1 : 0,
                 static_cast<unsigned long long>(s.subscribed_from),
                 static_cast<unsigned long long>(s.segments_sent),
                 static_cast<unsigned long long>(s.bytes_sent),
                 static_cast<unsigned long long>(s.naks_received),
                 static_cast<unsigned long long>(s.retransmit_segments),
                 static_cast<unsigned long long>(s.resyncs_sent));
  }
}

int RunSeeded(const Args& args) {
  c5::net::ShipServer::Options so;
  so.port = static_cast<std::uint16_t>(args.port);
  so.send_delay = std::chrono::milliseconds(args.send_delay_ms);
  c5::net::ShipServer server(so);
  const c5::Status s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", s.ToString().c_str());
    return 1;
  }
  AnnouncePort(server.port());

  const c5::log::Log log = c5::workload::BuildSeededLog(args.spec);
  std::fprintf(stderr, "seeded log: %zu segments, %zu records\n",
               log.NumSegments(), log.NumRecords());
  server.PublishLog(log);
  server.FinishLog();

  WaitUntilDone(args);
  PrintStats(server);
  server.Stop();
  return 0;
}

int RunLive(const Args& args) {
  c5::ClusterOptions options;
  options.WithListenPort(args.port).WithBackups(0);
  options.WithSegmentRecords(args.spec.segment_capacity);
  c5::Cluster cluster(options);
  c5::TableId table = 0;
  for (const std::string& name : c5::workload::SeededSchema()) {
    table = cluster.CreateTable(name);
  }
  cluster.Start();
  AnnouncePort(cluster.server_port());

  // The same seeded workload, executed through the live engine: subscribers
  // watch the log grow online instead of receiving a prebuilt archive.
  const c5::log::Log log = c5::workload::BuildSeededLog(args.spec);
  for (std::size_t i = 0; i < log.NumSegments(); ++i) {
    for (const auto& rec : log.segment(i)->records()) {
      const c5::Value value(rec.value.view());
      (void)cluster.ExecuteWithRetry([&](c5::txn::Txn& txn) {
        return rec.op == c5::OpType::kDelete ? txn.Delete(table, rec.key)
                                             : txn.Put(table, rec.key, value);
      });
    }
  }
  cluster.StopPrimary();  // finish the log: subscribers see END

  WaitUntilDone(args);
  if (cluster.ship_server() != nullptr) PrintStats(*cluster.ship_server());
  cluster.Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  return args.live ? RunLive(args) : RunSeeded(args);
}
