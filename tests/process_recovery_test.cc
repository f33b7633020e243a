// Crash-the-process recovery: a real c5-server child process streams the
// seeded log over TCP, gets SIGKILLed mid-stream, and is replaced by a fresh
// process serving the same seed on a NEW ephemeral port. The subscriber's
// reconnect loop (with a resolve hook re-reading the endpoint each attempt)
// must resume the replay and land on a state digest bit-for-bit identical to
// an in-process replay of the same log. This is the recovery mode the
// in-process DST cannot exercise: the failed node loses everything,
// including its kernel socket buffers.
//
// C5_SERVER_BIN is injected by CMake as the absolute path of the c5-server
// binary ($<TARGET_FILE:c5-server>).

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/protocol_factory.h"
#include "log/segment_source.h"
#include "net/socket_segment_source.h"
#include "tests/test_util.h"
#include "workload/seeded_log.h"

namespace c5 {
namespace {

#ifndef C5_SERVER_BIN
#define C5_SERVER_BIN ""
#endif

struct Child {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

// fork/exec c5-server with stdout on a pipe; block until it announces
// "PORT <n>" so the ephemeral port is known before the test proceeds.
Child SpawnServer(const std::vector<std::string>& flags) {
  Child child;
  int fds[2];
  if (pipe(fds) != 0) return child;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return child;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(C5_SERVER_BIN));
    for (const auto& f : flags) argv.push_back(const_cast<char*>(f.c_str()));
    argv.push_back(nullptr);
    execv(C5_SERVER_BIN, argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string line;
  char ch = 0;
  while (read(fds[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
  close(fds[0]);
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "PORT %u", &port) == 1) {
    child.pid = pid;
    child.port = static_cast<std::uint16_t>(port);
  } else {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  return child;
}

void Reap(pid_t pid, int sig) {
  if (pid <= 0) return;
  kill(pid, sig);
  waitpid(pid, nullptr, 0);
}

TEST(ProcessRecoveryTest, KillAndRestartServerMidStreamResumesBitForBit) {
  ASSERT_STRNE(C5_SERVER_BIN, "") << "c5-server path not injected by CMake";

  // The spec both sides agree on: the child via flags, this process via
  // BuildSeededLog. Small segments + a per-frame send delay stretch the
  // stream so the SIGKILL lands mid-transfer, not after the fact.
  workload::SeededLogSpec spec;
  spec.seed = 4242;
  spec.clients = 4;
  spec.txns_per_client = 300;
  spec.keyspace = 128;
  spec.segment_capacity = 16;
  const std::vector<std::string> flags = {
      "--seed",            std::to_string(spec.seed),
      "--clients",         std::to_string(spec.clients),
      "--txns",            std::to_string(spec.txns_per_client),
      "--keyspace",        std::to_string(spec.keyspace),
      "--segment-records", std::to_string(spec.segment_capacity),
      "--port",            "0",
      "--send-delay-ms",   "5",
  };

  // Oracle: the identical log replayed entirely in process.
  log::Log log = workload::BuildSeededLog(spec);
  const std::size_t total_frames = log.NumSegments();
  ASSERT_GT(total_frames, 20u);
  std::uint64_t want = 0;
  {
    storage::Database db;
    for (const std::string& name : workload::SeededSchema()) {
      db.CreateTable(name);
    }
    log::OfflineSegmentSource offline(&log);
    auto replica =
        core::MakeReplica(core::ProtocolKind::kC5, &db, {.num_workers = 4});
    replica->Start(&offline);
    replica->WaitUntilCaughtUp();
    replica->Stop();
    want = test::StateDigest(db, kMaxTimestamp);
  }

  Child child = SpawnServer(flags);
  ASSERT_GT(child.pid, 0) << "failed to spawn " << C5_SERVER_BIN;

  // The endpoint is re-resolved on every connect attempt, so swapping the
  // atomic port mid-run points the reconnect loop at the replacement server.
  std::atomic<std::uint16_t> port{child.port};
  net::SocketSegmentSource::Options so;
  so.resolve = [&port] {
    return std::pair<std::string, std::uint16_t>{"127.0.0.1", port.load()};
  };
  so.backoff_initial = std::chrono::milliseconds(5);
  so.backoff_max = std::chrono::milliseconds(100);
  net::SocketSegmentSource source(std::move(so));

  storage::Database db;
  for (const std::string& name : workload::SeededSchema()) {
    db.CreateTable(name);
  }
  auto replica =
      core::MakeReplica(core::ProtocolKind::kC5, &db, {.num_workers = 4});
  replica->Start(&source);

  // Let a prefix land, then pull the plug — SIGKILL, no goodbye.
  const std::size_t kill_after = 8;
  while (source.stats().segments_delivered.load() < kill_after) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::size_t delivered_at_kill =
      source.stats().segments_delivered.load();
  EXPECT_LT(delivered_at_kill, total_frames)
      << "stream finished before the kill; nothing mid-stream was tested";
  Reap(child.pid, SIGKILL);

  // Same seed, fresh process, fresh ephemeral port: the replacement serves
  // the byte-identical history and the subscriber resumes from its cursor.
  Child replacement = SpawnServer(flags);
  ASSERT_GT(replacement.pid, 0) << "failed to respawn " << C5_SERVER_BIN;
  port.store(replacement.port);

  replica->WaitUntilCaughtUp();
  replica->Stop();

  EXPECT_EQ(test::StateDigest(db, kMaxTimestamp), want)
      << "replay across a server crash diverged from the in-process oracle";
  EXPECT_GE(source.stats().reconnects.load(), 1u)
      << "subscriber never reconnected — the kill landed after END?";
  EXPECT_GT(source.stats().segments_delivered.load(), delivered_at_kill);

  Reap(replacement.pid, SIGTERM);
}

}  // namespace
}  // namespace c5
