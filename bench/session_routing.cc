// Extension bench: session-consistent reads across a backup fleet (§2.3),
// constructed through the c5::Cluster façade.
//
// One cluster per policy: three C5 backups behind staggered injected
// shipping delays (fast / medium / slow), so their visibility frontiers
// spread while they drain the primary's hot-counter log. Client sessions
// read through the session layer under each routing policy:
//
//   sticky        - pinned backup (Terry et al. [55] sticky sessions)
//   token-routed  - client-tracked metadata, rotate across eligible backups
//   freshest      - client-tracked metadata, always the most caught-up
//
// Reported per policy: session read throughput, how reads distribute across
// the fleet, and how often a read had to wait for an eligible backup.
// The control row reads the fleet round-robin WITHOUT a session token —
// fast, but it observes snapshot regressions (counted), which is exactly
// the §2.3 violation the session layer exists to prevent.

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "api/cluster.h"
#include "bench/bench_util.h"
#include "workload/synthetic.h"

namespace c5 {
namespace {

constexpr int kBackups = 3;
constexpr int kSessions = 8;

struct FleetResult {
  double reads_per_sec = 0;
  std::uint64_t waits = 0;
  std::uint64_t regressions = 0;  // control only
  std::vector<std::uint64_t> reads_per_backup =
      std::vector<std::uint64_t>(kBackups, 0);
};

// policy < 0 means the tokenless round-robin control.
FleetResult RunFleet(std::uint64_t txns, Key hot_key, int policy) {
  // Three C5 backups at staggered per-segment shipping delays.
  ClusterOptions options;
  options.WithEngine(ha::EngineKind::kMvtso)
      .WithWorkers(2)
      .WithSegmentRecords(256)
      .AddBackup({.protocol = core::ProtocolKind::kC5})
      .AddBackup({.protocol = core::ProtocolKind::kC5,
                  .ship_delay = [](std::size_t) {
                    return std::chrono::microseconds(300);
                  }})
      .AddBackup({.protocol = core::ProtocolKind::kC5,
                  .ship_delay = [](std::size_t) {
                    return std::chrono::microseconds(900);
                  }});
  Cluster cluster(options);
  const TableId table = cluster.CreateTable("kv");
  cluster.Start();

  // The hot-counter log: every transaction bumps one counter.
  for (std::uint64_t n = 0; n < txns; ++n) {
    (void)cluster.ExecuteWithRetry([&](txn::Txn& txn) {
      return txn.Put(table, hot_key, workload::EncodeIntValue(n));
    });
  }
  cluster.StopPrimary();  // the fleet now drains at its injected delays

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_reads{0};
  std::atomic<std::uint64_t> total_waits{0};
  std::atomic<std::uint64_t> total_regressions{0};
  std::vector<std::uint64_t> per_backup(kBackups, 0);
  SpinLock agg_mu;

  std::vector<std::thread> clients;
  for (int i = 0; i < kSessions; ++i) {
    clients.emplace_back([&, i] {
      Value v;
      std::uint64_t reads = 0;
      if (policy >= 0) {
        auto session = cluster.OpenSession(
            {.policy = static_cast<replica::RoutingPolicy>(policy),
             .sticky_index = static_cast<std::size_t>(i % kBackups)});
        while (!stop.load(std::memory_order_acquire)) {
          (void)session.Read(table, hot_key, &v);
          ++reads;
        }
        std::lock_guard<SpinLock> lock(agg_mu);
        total_reads.fetch_add(reads);
        total_waits.fetch_add(session.stats().waits);
        for (int b = 0; b < kBackups; ++b) {
          per_backup[b] += session.stats().reads_per_backup[b];
        }
      } else {
        // Control: tokenless round-robin with regression detection.
        std::uint64_t last_seen = 0;
        std::uint64_t regressions = 0;
        std::size_t next = static_cast<std::size_t>(i) % kBackups;
        std::vector<std::uint64_t> mine(kBackups, 0);
        while (!stop.load(std::memory_order_acquire)) {
          if (cluster.OpenSnapshot(next).Get(table, hot_key, &v).ok()) {
            const std::uint64_t n = workload::DecodeIntValue(v);
            if (n < last_seen) ++regressions;
            last_seen = n;
          }
          ++mine[next];
          next = (next + 1) % kBackups;
          ++reads;
        }
        std::lock_guard<SpinLock> lock(agg_mu);
        total_reads.fetch_add(reads);
        total_regressions.fetch_add(regressions);
        for (int b = 0; b < kBackups; ++b) per_backup[b] += mine[b];
      }
    });
  }

  Stopwatch sw;
  cluster.WaitForBackups();
  const double secs = sw.ElapsedSeconds();
  stop.store(true, std::memory_order_release);
  for (auto& c : clients) c.join();
  cluster.Shutdown();

  FleetResult result;
  result.reads_per_sec =
      secs > 0 ? static_cast<double>(total_reads.load()) / secs : 0;
  result.waits = total_waits.load();
  result.regressions = total_regressions.load();
  result.reads_per_backup = per_backup;
  return result;
}

}  // namespace
}  // namespace c5

int main() {
  c5::bench::InitBenchRuntime();
  c5::bench::PrintHeader(
      "Session routing across a 3-backup fleet at staggered lag\n"
      "(hot counter incremented by every txn; 8 client sessions; fleet "
      "built by c5::Cluster)");

  constexpr c5::Key kCounter = 3;
  const std::uint64_t txns = c5::bench::Scaled(20000);

  c5::bench::PrintRow("%-14s %12s %8s %12s %22s", "policy", "reads/s",
                      "waits", "regressions", "reads/backup (f/m/s)");
  const char* names[] = {"sticky", "token-routed", "freshest"};
  for (int p = 0; p < 3; ++p) {
    const auto r = c5::RunFleet(txns, kCounter, p);
    c5::bench::PrintRow(
        "%-14s %12.0f %8llu %12s %7.0f%%/%4.0f%%/%4.0f%%", names[p],
        r.reads_per_sec, static_cast<unsigned long long>(r.waits), "0*",
        100.0 * r.reads_per_backup[0] /
            std::max<std::uint64_t>(1, r.reads_per_backup[0] +
                                           r.reads_per_backup[1] +
                                           r.reads_per_backup[2]),
        100.0 * r.reads_per_backup[1] /
            std::max<std::uint64_t>(1, r.reads_per_backup[0] +
                                           r.reads_per_backup[1] +
                                           r.reads_per_backup[2]),
        100.0 * r.reads_per_backup[2] /
            std::max<std::uint64_t>(1, r.reads_per_backup[0] +
                                           r.reads_per_backup[1] +
                                           r.reads_per_backup[2]));
  }
  const auto control = c5::RunFleet(txns, kCounter, -1);
  c5::bench::PrintRow(
      "%-14s %12.0f %8s %12llu %7.0f%%/%4.0f%%/%4.0f%%", "no-token(ctrl)",
      control.reads_per_sec, "-",
      static_cast<unsigned long long>(control.regressions),
      100.0 * control.reads_per_backup[0] /
          std::max<std::uint64_t>(1, control.reads_per_backup[0] +
                                         control.reads_per_backup[1] +
                                         control.reads_per_backup[2]),
      100.0 * control.reads_per_backup[1] /
          std::max<std::uint64_t>(1, control.reads_per_backup[0] +
                                         control.reads_per_backup[1] +
                                         control.reads_per_backup[2]),
      100.0 * control.reads_per_backup[2] /
          std::max<std::uint64_t>(1, control.reads_per_backup[0] +
                                         control.reads_per_backup[1] +
                                         control.reads_per_backup[2]));
  c5::bench::PrintRow(
      "* session policies cannot regress by construction (asserted in "
      "tests/session_test).\nExpected: no-token control observes snapshot "
      "regressions; freshest skews to the fast\nbackup; token-routed "
      "spreads across eligible backups; sticky splits by pin.");
  return 0;
}
