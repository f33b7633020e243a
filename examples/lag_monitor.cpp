// Live replication-lag monitor: runs the adversarial workload (every
// transaction updates one hot row) against an online 2PL primary twice —
// once replicated through KuaFu (transaction granularity) and once through
// C5 — printing instantaneous lag twice per second. The KuaFu run visibly
// accumulates lag; the C5 run stays flat (§3 vs §4). Each run is one
// c5::Cluster with a lag tracker attached to its backup.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/lag_monitor
//
// C5_EXAMPLE_SECONDS overrides the per-protocol run time (default 4).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "api/cluster.h"
#include "workload/runner.h"
#include "workload/synthetic.h"

using namespace c5;

namespace {

int RunSeconds() {
  if (const char* s = std::getenv("C5_EXAMPLE_SECONDS")) {
    const int n = std::atoi(s);
    if (n > 0) return n;
  }
  return 4;
}

void RunOnce(core::ProtocolKind kind, int seconds) {
  replica::LagTracker lag(/*sample_every=*/16);
  ClusterOptions options;
  options.WithEngine(ha::EngineKind::kTwoPhaseLocking)
      .WithWorkers(4)
      .WithSegmentRecords(256)
      .AddBackup({.protocol = kind, .lag = &lag});
  Cluster cluster(options);
  const TableId table = cluster.CreateTable("synthetic");
  cluster.Start();

  workload::SyntheticWorkload wl(table, {.inserts_per_txn = 16,
                                         .adversarial = true});
  if (!wl.LoadHotRow(cluster.engine()).ok()) return;
  cluster.Flush();

  std::printf("\n--- protocol: %s ---\n", core::ToString(kind));
  std::printf("%8s %12s %14s\n", "t(s)", "lag(ms)", "pending txns");
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> commits{0};
  std::vector<std::thread> writers;
  std::vector<std::uint64_t> seqs(4, 0);
  for (int c = 0; c < 4; ++c) {
    writers.emplace_back([&, c] {
      Rng rng(c);
      while (!stop.load()) {
        if (wl.RunTxn(cluster.engine(), rng, c, &seqs[c]).ok()) {
          lag.RecordCommit(cluster.clock().Latest());
          commits.fetch_add(1);
        }
      }
    });
  }

  Stopwatch sw;
  for (int tick = 0; tick < seconds * 2; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    std::printf("%8.1f %12.1f %14zu\n", sw.ElapsedSeconds(),
                static_cast<double>(lag.CurrentLagNanos()) / 1e6,
                lag.PendingCount());
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  cluster.StopPrimary();
  cluster.WaitForBackups();
  std::printf("committed %llu txns; final lag 0 (caught up)\n",
              static_cast<unsigned long long>(commits.load()));
  cluster.Shutdown();
}

}  // namespace

int main() {
  const int seconds = RunSeconds();
  RunOnce(core::ProtocolKind::kKuaFu, seconds);
  RunOnce(core::ProtocolKind::kC5, seconds);
  return 0;
}
