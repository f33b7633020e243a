#ifndef C5_BENCH_ONLINE_HARNESS_H_
#define C5_BENCH_ONLINE_HARNESS_H_

// The live-primary harness behind the paper's online experiments (Figs. 8,
// 9, 12 and the stall-recovery bench): a c5::Cluster with a 2PL primary
// ships its log to one backup while paced insert-only writers run on the
// primary and optional closed-loop point readers query the backup.
// Replication lag is measured per §6.3: time from primary commit to
// inclusion in the backup's current snapshot.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "api/cluster.h"
#include "bench/bench_util.h"
#include "common/histogram.h"
#include "replica/lag_tracker.h"
#include "workload/synthetic.h"

namespace c5::bench {

struct OnlineConfig {
  core::ProtocolKind protocol = core::ProtocolKind::kC5MyRocks;
  int write_clients = 4;
  int read_clients = 0;
  int workers = 4;
  std::chrono::microseconds snapshot_interval{10000};  // paper: 10 ms
  std::uint32_t inserts_per_txn = 4;
  // Starting write rate in txns/s across all writers (0: closed loop);
  // OnlineHarness::SetWriteRate changes it mid-run.
  std::uint64_t write_tps = 0;
  // The backup's per-segment delivery hook (BackupSpec::ship_delay).
  log::DelayedSegmentSource::DelayFn ship_delay;
  // RunOnlineInsertExperiment only: run length, and how many consecutive
  // periods the lag histogram is split into (Fig. 8).
  std::chrono::milliseconds duration{3000};
  int periods = 3;
};

// Builds and starts the cluster, writers and readers on construction; Stop
// (or the destructor) shuts them down in order.
class OnlineHarness {
 public:
  explicit OnlineHarness(const OnlineConfig& config)
      : config_(config), rate_(config.write_tps) {
    ClusterOptions options;
    options.WithEngine(ha::EngineKind::kTwoPhaseLocking)
        .WithSegmentRecords(256)
        .WithWorkers(config.workers)
        .WithSnapshotInterval(config.snapshot_interval)
        .AddBackup({.protocol = config.protocol,
                    .ship_delay = config.ship_delay,
                    .lag = &lag_});
    cluster_ = std::make_unique<Cluster>(std::move(options));
    table_ = cluster_->CreateTable("kv");
    cluster_->Start();
    for (int c = 0; c < config.write_clients; ++c) {
      writers_.emplace_back([this, c] { WriteLoop(c); });
    }
    for (int r = 0; r < config.read_clients; ++r) {
      readers_.emplace_back([this, r] { ReadLoop(r); });
    }
  }

  ~OnlineHarness() { Stop(); }

  OnlineHarness(const OnlineHarness&) = delete;
  OnlineHarness& operator=(const OnlineHarness&) = delete;

  // Txns/s across all writers (0: closed loop). Each writer restarts its
  // pacing window when it sees a new rate.
  void SetWriteRate(std::uint64_t tps) {
    rate_.store(tps, std::memory_order_relaxed);
  }

  replica::LagTracker& lag() { return lag_; }
  std::uint64_t commits() const {
    return commits_.load(std::memory_order_relaxed);
  }
  std::uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  BackupNode& backup() { return cluster_->backup(0); }

  // Stops the writers, drains the backup to the last commit, then stops the
  // readers and the cluster. Idempotent.
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    stop_writers_.store(true, std::memory_order_release);
    for (auto& w : writers_) w.join();
    cluster_->WaitForBackups();
    stop_readers_.store(true, std::memory_order_release);
    for (auto& r : readers_) r.join();
    cluster_->Shutdown();
  }

 private:
  // Insert-only: client c owns keys (1<<63)|(c<<40)|seq.
  void WriteLoop(int c) {
    std::uint64_t seq = 0;
    std::uint64_t rate = 0;
    std::uint64_t done = 0;  // commits in the current pacing window
    Stopwatch window;
    while (!stop_writers_.load(std::memory_order_acquire)) {
      const std::uint64_t now_rate = rate_.load(std::memory_order_relaxed);
      if (now_rate != rate) {
        rate = now_rate;
        done = 0;
        window.Restart();
      }
      Timestamp commit_ts = 0;
      const Status s = cluster_->ExecuteWithRetry(
          [&](txn::Txn& txn) {
            for (std::uint32_t i = 0; i < config_.inserts_per_txn; ++i) {
              const Key k = (std::uint64_t{1} << 63) |
                            (static_cast<std::uint64_t>(c) << 40) | (seq + i);
              const Status st =
                  txn.Insert(table_, k, workload::EncodeIntValue(seq + i));
              if (!st.ok()) return st;
            }
            return Status::Ok();
          },
          &commit_ts);
      if (s.ok()) {
        seq += config_.inserts_per_txn;
        lag_.RecordCommit(commit_ts);
        commits_.fetch_add(1, std::memory_order_relaxed);
        ++done;
      }
      if (rate == 0) continue;
      // Pace this writer at its share of the rate.
      const double due =
          static_cast<double>(done) * config_.write_clients / rate;
      while (window.ElapsedSeconds() < due &&
             rate_.load(std::memory_order_relaxed) == rate &&
             !stop_writers_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

  // Random point queries on the insert key space (§6.3: "queries could
  // select a nonexistent key").
  void ReadLoop(int r) {
    Rng rng(1000 + r);
    Value v;
    while (!stop_readers_.load(std::memory_order_acquire)) {
      const Key key = (std::uint64_t{1} << 63) |
                      (rng.Uniform(config_.write_clients) << 40) |
                      rng.Uniform(1 << 20);
      (void)backup().OpenSnapshot().Get(table_, key, &v);
      reads_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const OnlineConfig config_;
  // Declared before the cluster, whose backup records into it.
  replica::LagTracker lag_{/*sample_every=*/8};
  std::unique_ptr<Cluster> cluster_;
  TableId table_ = 0;
  std::atomic<std::uint64_t> rate_;
  std::atomic<std::uint64_t> commits_{0};
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<bool> stop_writers_{false};
  std::atomic<bool> stop_readers_{false};
  std::vector<std::thread> writers_;
  std::vector<std::thread> readers_;
  bool stopped_ = false;
};

struct OnlinePeriod {
  Histogram lag;
  double write_tps = 0;
  double read_tps = 0;
};

struct OnlineResult {
  std::vector<OnlinePeriod> periods;
  double total_write_tps = 0;
  double total_read_tps = 0;
  // Allocations (bench-binary-wide hook) from the first commit until the
  // backup has drained, and the backup's sampled apply-latency distribution.
  std::uint64_t allocs = 0;
  Histogram apply_latency;
};

// Runs the harness for config.duration and carves the run into
// config.periods periods, collecting a lag histogram per period.
inline OnlineResult RunOnlineInsertExperiment(const OnlineConfig& config) {
  OnlineHarness harness(config);
  AllocScope alloc_scope;
  OnlineResult result;
  const auto period_len = config.duration / config.periods;
  const double period_secs = std::chrono::duration<double>(period_len).count();
  std::uint64_t last_commits = 0, last_reads = 0;
  Stopwatch total;
  for (int p = 0; p < config.periods; ++p) {
    std::this_thread::sleep_for(period_len);
    OnlinePeriod period;
    period.lag = harness.lag().TakeHistogram(/*reset=*/true);
    const std::uint64_t c_now = harness.commits(), r_now = harness.reads();
    period.write_tps = static_cast<double>(c_now - last_commits) / period_secs;
    period.read_tps = static_cast<double>(r_now - last_reads) / period_secs;
    last_commits = c_now;
    last_reads = r_now;
    result.periods.push_back(std::move(period));
  }
  const double total_secs = total.ElapsedSeconds();
  result.total_write_tps =
      static_cast<double>(harness.commits()) / total_secs;
  result.total_read_tps = static_cast<double>(harness.reads()) / total_secs;
  harness.Stop();
  result.allocs = alloc_scope.Count();
  result.apply_latency = harness.backup().replica().ApplyLatencySnapshot();
  return result;
}

}  // namespace c5::bench

#endif  // C5_BENCH_ONLINE_HARNESS_H_
