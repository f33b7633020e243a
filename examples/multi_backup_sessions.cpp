// Multi-backup session consistency (§2.3): one primary, two backups at very
// different lag, and a client that writes then reads. Raw reads against an
// arbitrary backup can miss the client's own write or travel back in time;
// a session opened through the Cluster façade carries a token that routes
// around the lagging backup and keeps reads monotonic.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/multi_backup_sessions

#include <cstdio>

#include "api/cluster.h"

using namespace c5;

int main() {
  // --- One primary, two C5 backups: FAST applies immediately, SLOW sits
  // behind an injected 10ms-per-segment shipping delay (a congested link, a
  // stalled apply thread — any of §8's lag sources).
  ClusterOptions options;
  options.WithEngine(ha::EngineKind::kMvtso)
      .WithWorkers(2)
      .WithSegmentRecords(64)
      .AddBackup({.protocol = core::ProtocolKind::kC5})
      .AddBackup({.protocol = core::ProtocolKind::kC5,
                  .ship_delay = [](std::size_t) {
                    return std::chrono::microseconds(10000);
                  }});
  Cluster cluster(options);
  const TableId posts = cluster.CreateTable("posts");
  cluster.Start();

  // The client publishes 500 posts; post key n carries version n.
  Timestamp my_last_commit = 0;
  for (std::uint64_t n = 0; n < 500; ++n) {
    (void)cluster.ExecuteWithRetry(
        [&](txn::Txn& txn) {
          return txn.Put(posts, n, "post-" + std::to_string(n));
        },
        &my_last_commit);
  }
  cluster.Flush();
  std::printf("client wrote 500 posts; last commit ts<=%llu\n",
              static_cast<unsigned long long>(my_last_commit));

  // Give FAST a head start so the fleet is visibly spread.
  while (cluster.backup(0).VisibleTimestamp() < my_last_commit) {
  }
  std::printf("backup FAST at ts=%llu; backup SLOW lagging at ts=%llu\n",
              static_cast<unsigned long long>(
                  cluster.backup(0).VisibleTimestamp()),
              static_cast<unsigned long long>(
                  cluster.backup(1).VisibleTimestamp()));

  // --- WITHOUT a session: reading "my" newest post from whichever backup
  // the load balancer picks silently returns nothing on the laggard.
  Value v;
  const bool raw_fast =
      cluster.OpenSnapshot(0).Get(posts, 499, &v).ok();
  const bool raw_slow =
      cluster.OpenSnapshot(1).Get(posts, 499, &v).ok();
  std::printf("raw read of post 499: FAST=%s SLOW=%s  <- the §2.3 problem\n",
              raw_fast ? "ok" : "missing", raw_slow ? "ok" : "missing");

  // --- WITH a session: the client's token (its last commit) makes the
  // laggard ineligible; the read lands on FAST.
  auto session = cluster.OpenSession();
  session.OnWrite(my_last_commit);
  const Status s = session.Read(posts, 499, &v);
  std::printf("session read of post 499: %s (%s) via backup %s\n",
              s.ok() ? v.c_str() : "-", s.ok() ? "ok" : "missing",
              session.stats().reads_per_backup[0] > 0 ? "FAST" : "SLOW");

  // --- Monotonic reads while the laggard catches up: alternating session
  // reads (point, multi-get, and range scans) never observe an older post
  // set than before.
  std::uint64_t last_found = 0;
  bool regressed = false;
  for (int round = 0; round < 50; ++round) {
    std::vector<std::pair<Key, Value>> page;
    if (!session.Scan(posts, 0, 500, &page).ok()) continue;
    if (page.size() < last_found) regressed = true;
    last_found = page.size();
  }
  cluster.StopPrimary();
  cluster.WaitForBackups();
  std::printf("alternating session reads during catch-up: %s\n",
              regressed ? "REGRESSED (bug!)" : "never regressed");
  std::printf("final read distribution: FAST=%llu SLOW=%llu (token %llu)\n",
              static_cast<unsigned long long>(
                  session.stats().reads_per_backup[0]),
              static_cast<unsigned long long>(
                  session.stats().reads_per_backup[1]),
              static_cast<unsigned long long>(session.token()));

  cluster.Shutdown();
  return (s.ok() && !regressed && !raw_slow) ? 0 : 1;
}
