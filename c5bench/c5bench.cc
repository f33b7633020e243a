// c5bench — the end-to-end primary -> backup benchmark.
//
//   c5bench --workload {ingest|tpcc|read_mostly} [--seed N] [--seconds S]
//           [--trace 0|1] [--trace-out FILE] [--quick]
//
// One process runs one workload as kSubRuns sub-runs, each on a fresh
// c5::Cluster (primary engine, log shipping, C5 backups):
//   1. set-up (timed: setup_s is the median over sub-runs)
//   2. warm-up at the offered rates (discarded)
//   3. the measured open-loop window (--seconds / kSubRuns)
//   4. the capacity phase: writers commit a fixed number of transactions
//      closed loop while readers keep their rate
//   5. drain: StopPrimary + WaitForBackups
//   6. correctness gate: every backup equals the primary, plus workload
//      invariants (every read was validated as it happened)
// Fresh clusters per sub-run resample the run-level state (thread
// placement, heap layout, host load) that a single long window would keep
// for its whole length; latency samples are pooled over sub-runs, per-
// sub-run values (set-up time, capacity, memory) are reported as medians.
//
// Load comes from at most four threads: the workload's writers and readers
// plus one poller, which watches backup 0's visible timestamp every ~100 us
// to time replication lag (§6.3: from commit return until the backup's
// visible snapshot covers the transaction). On hosts with four or more
// CPUs the load threads run on the first half of the CPUs and everything
// the cluster spawns on the other half, so client threads never wait behind
// the cluster's spinning replay threads for a CPU (the paper runs primary
// and backups on separate machines).
//
// Output: one line per metric (name, value, unit, sample count), then, as
// the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"} holding the end-to-end metrics (--trace 0) or the per-layer
// metrics of the traced run (--trace 1). Exit status 0 iff correct.

#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/spsc_queue.h"
#include "core/c5_replica.h"
#include "harness.h"
#include "net/ship_server.h"
#include "results.h"
#include "stats.h"
#include "trace.h"

namespace c5bench {
namespace {

using c5::MonotonicNowNanos;
using c5::SpscQueue;

constexpr int kSubRuns = 5;
constexpr int kQuickSubRuns = 2;
constexpr double kWarmupS = 1.0;
constexpr double kQuickWarmupS = 0.5;
constexpr std::int64_t kNsPerSec = 1'000'000'000;
constexpr std::int64_t kPollPeriodNs = 100'000;
constexpr std::int64_t kCounterPeriodNs = 10'000'000;
constexpr std::int64_t kFlushPeriodNs = 1'000'000;
// The last stretch of a wait yield-spins instead of sleeping: a timer
// wakeup lands microseconds late, and a thread whose CPU idled meanwhile
// runs its request with cold caches (measured: tpcc read_p50 3.0 us after a
// 5 us spin, 1.2 us after a 20 us spin).
constexpr std::int64_t kSpinNs = 20'000;
constexpr std::int64_t kCapacityDeadlineNs = 10 * kNsPerSec;
// Spans a sampled request records on its load thread: the root, the
// generator wait and at most two calls into the system (a workload op or
// api.execute with its txn.* child).
constexpr double kMaxSpansPerRequest = 4;
constexpr std::size_t kCommitQueueCapacity = std::size_t{1} << 16;

// ---- Time ---------------------------------------------------------------

// Timer slack defaults to 50 us per thread; pacing needs the sleeps exact.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void SleepUntil(std::int64_t ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / kNsPerSec);
  ts.tv_nsec = static_cast<long>(ns % kNsPerSec);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void WaitUntil(std::int64_t due) {
  if (due - MonotonicNowNanos() > kSpinNs) SleepUntil(due - kSpinNs);
  while (MonotonicNowNanos() < due) sched_yield();
}

// ---- CPUs ---------------------------------------------------------------

// Load threads on the first half of the allowed CPUs, the cluster on the
// second half; no split below four CPUs.
struct CpuSplit {
  bool enabled = false;
  cpu_set_t load;
  cpu_set_t cluster;

  CpuSplit() {
    CPU_ZERO(&load);
    CPU_ZERO(&cluster);
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    if (cpus.size() < 4) return;
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      CPU_SET(cpus[i], i < cpus.size() / 2 ? &load : &cluster);
    }
    enabled = true;
  }

  // Threads inherit their creator's mask, so pinning the thread that starts
  // the cluster pins every thread the cluster spawns.
  void PinToCluster() const {
    if (enabled) sched_setaffinity(0, sizeof(cluster), &cluster);
  }
  void PinToLoad() const {
    if (enabled) sched_setaffinity(0, sizeof(load), &load);
  }
};

// ---- Memory -------------------------------------------------------------

double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---- Counters sampled at the window's edges ------------------------------

struct Counters {
  std::int64_t at_ns = 0;
  std::uint64_t commits = 0, aborts = 0, user_aborts = 0;
  std::uint64_t applied_writes = 0, deferred = 0, snapshots = 0;
  std::vector<c5::core::C5Replica::WorkerLoad> loads;
  std::uint64_t segments_sent = 0, bytes_sent = 0, naks = 0, retransmits = 0;
};

Counters ReadCounters(c5::Cluster& cluster) {
  Counters c;
  c.at_ns = MonotonicNowNanos();
  const c5::txn::EngineStats& es = cluster.engine().stats();
  c.commits = es.commits.load();
  c.aborts = es.aborts.load();
  c.user_aborts = es.user_aborts.load();
  c5::replica::ReplicaStats& rs = cluster.backup(0).replica().stats();
  c.applied_writes = rs.applied_writes.load();
  c.deferred = rs.deferred_writes.load();
  c.snapshots = rs.snapshots_taken.load();
  if (auto* c5r =
          dynamic_cast<c5::core::C5Replica*>(&cluster.backup(0).replica())) {
    c.loads = c5r->WorkerLoads();
  }
  if (c5::net::ShipServer* server = cluster.ship_server()) {
    for (const c5::net::ClientShipStats& s : server->ClientStatsSnapshot()) {
      c.segments_sent += s.segments_sent;
      c.bytes_sent += s.bytes_sent;
      c.naks += s.naks_received;
      c.retransmits += s.retransmit_segments;
    }
  }
  return c;
}

void AddWindow(const Counters& c0, const Counters& c1, WindowTotals* t) {
  auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double ns = static_cast<double>(c1.at_ns - c0.at_ns);
  t->seconds += ns / 1e9;
  t->commits += d(c0.commits, c1.commits);
  t->aborts += d(c0.aborts, c1.aborts);
  t->user_aborts += d(c0.user_aborts, c1.user_aborts);
  t->applied_writes += d(c0.applied_writes, c1.applied_writes);
  t->deferred += d(c0.deferred, c1.deferred);
  t->snapshots += d(c0.snapshots, c1.snapshots);
  t->segments_sent += d(c0.segments_sent, c1.segments_sent);
  t->bytes_sent += d(c0.bytes_sent, c1.bytes_sent);
  t->naks += d(c0.naks, c1.naks);
  t->retransmits += d(c0.retransmits, c1.retransmits);
  const std::size_t workers = std::min(c0.loads.size(), c1.loads.size());
  t->worker_records.resize(std::max(t->worker_records.size(), workers), 0);
  for (std::size_t i = 0; i < workers; ++i) {
    t->worker_cpu_ns += d(c0.loads[i].cpu_ns, c1.loads[i].cpu_ns);
    t->worker_window_ns += ns;
    t->worker_records[i] +=
        d(c0.loads[i].applied_records, c1.loads[i].applied_records);
  }
}

// Versions per row slot across a database (O(rows + versions)).
double VersionsPerRow(c5::storage::Database& db) {
  const auto guard = db.epochs().Enter();
  double versions = 0, rows = 0;
  for (c5::TableId t = 0; t < db.NumTables(); ++t) {
    versions += static_cast<double>(db.table(t).CountVersionsApprox());
    rows += static_cast<double>(db.table(t).NumRows());
  }
  return Ratio(versions, rows);
}

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

// ---- One sub-run --------------------------------------------------------

// A writer's committed transaction, handed to the poller for lag timing.
struct CommitRec {
  c5::Timestamp ts = 0;
  std::int64_t commit_ns = 0;
  SpanId root = 0;  // the request's root span when sampled, else 0
  std::uint64_t req = 0;
};

struct ThreadStats {
  std::vector<std::int64_t> latency_ns[3];  // by OpClass; window only
  std::vector<std::int64_t> gen_late_ns;
  std::vector<std::int64_t> sampled_ns, unsampled_ns;  // traced run only
  std::uint64_t attempted = 0, failed = 0, invalid = 0;
  std::uint64_t window_due = 0;   // requests due in the window
  std::uint64_t window_done = 0;  // ... and completed inside it
  std::uint64_t capacity_commits = 0;
  c5::Timestamp max_commit_ts = 0;
};

struct PollerStats {
  std::vector<std::int64_t> lag_ns, sched_to_visible_ns, publish_gap_ns,
      poll_period_ns, backlog;
  std::vector<double> lag_at_s, lag_ms, rss_at_s, rss_mb;
};

class SubRun {
 public:
  SubRun(const RunConfig& cfg, Workload& w, const CpuSplit& cpus, int index,
         double window_s, Results* out)
      : cfg_(cfg), w_(w), cpus_(cpus), index_(index), window_s_(window_s),
        out_(out) {}

  void Run();

 private:
  void LoadLoop(LoadThread& t, ThreadStats& st, SpscQueue<CommitRec>* commits,
                SpanBuffer* spans, std::int64_t first_due);
  void PollLoop(SpanBuffer* spans);
  void Collect();

  const RunConfig& cfg_;
  Workload& w_;
  const CpuSplit& cpus_;
  const int index_;
  const double window_s_;
  Results* out_;
  c5::Cluster* cluster_ = nullptr;

  // Phase edges, fixed before any load thread starts. The capacity phase
  // ends after capacity_txns_ transactions, or at cap_deadline_ at the
  // latest.
  std::int64_t win_start_ = 0, win_end_ = 0, cap_deadline_ = 0;
  std::uint64_t capacity_txns_ = 0;
  std::atomic<std::uint64_t> capacity_issued_{0};
  std::atomic<bool> stop_readers_{false};
  std::atomic<bool> stop_poller_{false};

  std::vector<std::unique_ptr<LoadThread>> threads_;
  std::vector<ThreadStats> stats_;
  std::vector<std::unique_ptr<SpscQueue<CommitRec>>> commits_;  // per writer
  PollerStats poll_;
};

void SubRun::LoadLoop(LoadThread& t, ThreadStats& st,
                      SpscQueue<CommitRec>* commits, SpanBuffer* spans,
                      std::int64_t first_due) {
  TightenTimerSlack();
  cpus_.PinToLoad();
  const auto period = static_cast<std::int64_t>(1e9 / t.rate);
  std::int64_t due = first_due;
  for (std::uint64_t n = 0;; ++n, due += period) {
    bool closed = false;
    if (t.writer) {
      // Open loop until the window's requests are all issued, then closed
      // loop (the capacity phase) for the plan's transaction count.
      if (due >= win_end_) {
        if (capacity_issued_.fetch_add(1, std::memory_order_relaxed) >=
                capacity_txns_ ||
            MonotonicNowNanos() >= cap_deadline_) {
          break;
        }
        closed = true;
      }
    } else if (stop_readers_.load(std::memory_order_acquire)) {
      break;
    }
    if (closed) {
      due = MonotonicNowNanos();
    } else {
      WaitUntil(due);
    }
    const std::int64_t issue = MonotonicNowNanos();
    const bool in_window = !closed && due >= win_start_ && due < win_end_;
    const bool sampled = cfg_.trace && in_window && n % kTraceSampleEvery == 0;
    Tracer tr;
    SpanId root = 0;
    const std::uint64_t req = (static_cast<std::uint64_t>(index_) << 56) |
                              (static_cast<std::uint64_t>(t.id) << 48) | n;
    if (sampled) {
      root = spans->Add(SpanName::kRequest, 0, req, due, due);
      spans->Add(SpanName::kGenWait, root, req, due, issue);
      tr = Tracer(spans, root, req);
    }
    const OpResult r = w_.Run(t, tr);
    const std::int64_t done = MonotonicNowNanos();
    if (sampled) spans->SetEnd(root, done);

    ++st.attempted;
    if (r.failed || r.invalid) ++st.failed;
    if (r.invalid) ++st.invalid;
    if (in_window) {
      ++st.window_due;
      st.latency_ns[static_cast<int>(r.cls)].push_back(done - due);
      st.gen_late_ns.push_back(issue - due);
      if (done < win_end_) ++st.window_done;
      if (cfg_.trace) {
        (sampled ? st.sampled_ns : st.unsampled_ns).push_back(done - due);
      }
    }
    if (r.commit_ts != 0 && commits != nullptr) {
      if (closed) ++st.capacity_commits;
      st.max_commit_ts = std::max(st.max_commit_ts, r.commit_ts);
      commits->Push(CommitRec{r.commit_ts, done, root, req});
    }
  }
}

void SubRun::PollLoop(SpanBuffer* spans) {
  TightenTimerSlack();
  cpus_.PinToLoad();
  c5::replica::ReplicaBase& reader = cluster_->backup(0).reader();
  auto* c5r = dynamic_cast<c5::core::C5Replica*>(&cluster_->backup(0).replica());

  struct Pending {
    CommitRec rec;
    std::int64_t sched_ns = 0;  // when the scheduler's watermark covered it
  };
  // Per writer, in commit order (a writer's commits have increasing
  // timestamps); scheduled[w] counts the front entries already stamped.
  std::vector<std::deque<Pending>> pending(commits_.size());
  std::vector<std::size_t> scheduled(commits_.size(), 0);

  c5::Timestamp last_visible = reader.VisibleTimestamp();
  std::int64_t last_change = MonotonicNowNanos();
  std::int64_t prev = 0;
  std::int64_t next = MonotonicNowNanos();
  std::int64_t next_counters = next;
  std::int64_t next_flush = next;
  std::uint64_t flush_req = 0;
  const double t0 = static_cast<double>(win_start_);

  while (!stop_poller_.load(std::memory_order_acquire)) {
    const std::int64_t now = MonotonicNowNanos();
    const bool in_window = now >= win_start_ && now < win_end_;
    if (prev != 0 && in_window) poll_.poll_period_ns.push_back(now - prev);
    prev = now;

    const c5::Timestamp visible = reader.VisibleTimestamp();
    const c5::Timestamp watermark = c5r != nullptr ? c5r->watermark() : 0;
    if (visible != last_visible) {
      if (in_window) poll_.publish_gap_ns.push_back(now - last_change);
      last_change = now;
      last_visible = visible;
    }

    std::int64_t backlog = 0;
    for (std::size_t w = 0; w < commits_.size(); ++w) {
      auto& q = pending[w];
      while (auto rec = commits_[w]->TryPop()) q.push_back(Pending{*rec, 0});
      if (c5r != nullptr) {
        for (; scheduled[w] < q.size() && q[scheduled[w]].rec.ts <= watermark;
             ++scheduled[w]) {
          q[scheduled[w]].sched_ns = now;
        }
      }
      while (!q.empty() && q.front().rec.ts <= visible) {
        const Pending& p = q.front();
        if (p.rec.commit_ns >= win_start_ && p.rec.commit_ns < win_end_) {
          const std::int64_t lag = now - p.rec.commit_ns;
          poll_.lag_ns.push_back(lag);
          poll_.lag_at_s.push_back(
              (static_cast<double>(p.rec.commit_ns) - t0) / 1e9);
          poll_.lag_ms.push_back(static_cast<double>(lag) / 1e6);
          if (p.sched_ns != 0) {
            poll_.sched_to_visible_ns.push_back(now - p.sched_ns);
          }
        }
        if (p.rec.root != 0) {
          spans->Add(SpanName::kVisible, p.rec.root, p.rec.req,
                     p.rec.commit_ns, now);
        }
        q.pop_front();
        if (scheduled[w] > 0) --scheduled[w];
      }
      backlog += static_cast<std::int64_t>(q.size());
    }

    if (now >= next_counters) {
      if (in_window) {
        poll_.backlog.push_back(backlog);
        poll_.rss_at_s.push_back((static_cast<double>(now) - t0) / 1e9);
        poll_.rss_mb.push_back(ResidentMb());
      }
      next_counters += kCounterPeriodNs;
    }
    if (cfg_.trace && now >= next_flush) {
      if (in_window) {
        const std::int64_t f0 = MonotonicNowNanos();
        cluster_->Flush();
        spans->Add(SpanName::kFlush, 0,
                   (static_cast<std::uint64_t>(index_) << 56) |
                       (std::uint64_t{0xFF} << 48) | flush_req++,
                   f0, MonotonicNowNanos());
      }
      next_flush += kFlushPeriodNs;
    }
    next += kPollPeriodNs;
    if (next < now) next = now + kPollPeriodNs;
    SleepUntil(next);
  }
}

void SubRun::Run() {
  // 1. Set-up. The cluster starts from the cluster's CPUs (every thread it
  // spawns inherits them, and keeps the default timer slack — this thread
  // never changes it); the preload is client work, so it runs on the load
  // CPUs like every later request, not behind the spinning replay threads.
  const double rss_before = ResidentMb();
  const c5::Stopwatch setup;
  cpus_.PinToCluster();
  w_.Start();
  cpus_.PinToLoad();
  w_.Preload();
  out_->setup_s.push_back(setup.ElapsedSeconds());
  cluster_ = &w_.cluster();

  const LoadPlan load = w_.Plan();
  const std::vector<ThreadPlan>& plan = load.threads;
  capacity_txns_ = cfg_.quick ? load.capacity_txns / 10 : load.capacity_txns;
  int writers = 0;
  double write_rate = 0;
  for (const ThreadPlan& p : plan) {
    if (!p.writer) continue;
    ++writers;
    write_rate += p.rate;
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    // Inputs depend only on (seed, sub-run, thread).
    threads_.push_back(std::make_unique<LoadThread>(
        static_cast<int>(i), plan[i].writer, plan[i].rate,
        Mix64(Mix64(cfg_.seed) ^ (static_cast<std::uint64_t>(index_) << 32) ^
              (i + 1))));
    threads_.back()->last_snapshot_ts.assign(cluster_->num_backups(), 0);
    if (plan[i].writer) {
      commits_.push_back(
          std::make_unique<SpscQueue<CommitRec>>(kCommitQueueCapacity));
    }
  }
  if (out_->spans.empty()) {
    // Room for every span of the whole traced run (all sub-runs' windows,
    // plus a second of slack): each load thread's sampled requests, and the
    // poller's replica.visible per sampled commit plus a log.flush per
    // kFlushPeriodNs.
    const double traced_s = cfg_.trace ? cfg_.window_s + 1 : 0;
    auto spans_for = [traced_s](double per_s) {
      return static_cast<std::size_t>(per_s * traced_s);
    };
    for (std::size_t i = 0; i < plan.size(); ++i) {
      out_->spans.push_back(std::make_unique<SpanBuffer>(
          static_cast<std::uint32_t>(i),
          spans_for(plan[i].rate / kTraceSampleEvery * kMaxSpansPerRequest)));
    }
    out_->spans.push_back(std::make_unique<SpanBuffer>(
        static_cast<std::uint32_t>(plan.size()),
        spans_for(write_rate / kTraceSampleEvery +
                  static_cast<double>(kNsPerSec / kFlushPeriodNs))));
  }
  // Sample vectors are sized up front: a reallocation inside the window
  // would stall the thread that records it.
  stats_.resize(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const auto expect = static_cast<std::size_t>(plan[i].rate * (window_s_ + 1));
    for (auto& v : stats_[i].latency_ns) v.reserve(expect);
    stats_[i].gen_late_ns.reserve(expect);
    if (cfg_.trace) stats_[i].unsampled_ns.reserve(expect);
  }
  const auto commits = static_cast<std::size_t>(write_rate * (window_s_ + 1));
  const auto polls =
      static_cast<std::size_t>((window_s_ + 1) * 1e9 / kPollPeriodNs);
  for (auto* v : {&poll_.lag_ns, &poll_.sched_to_visible_ns}) {
    v->reserve(commits);
  }
  for (auto* v : {&poll_.lag_at_s, &poll_.lag_ms}) v->reserve(commits);
  for (auto* v : {&poll_.publish_gap_ns, &poll_.poll_period_ns}) {
    v->reserve(polls);
  }

  // Phase edges. Threads of one role start staggered across one period so
  // their requests do not arrive in lockstep.
  const double warmup_s = cfg_.quick ? kQuickWarmupS : kWarmupS;
  const std::int64_t start = MonotonicNowNanos() + 10'000'000;
  win_start_ = start + static_cast<std::int64_t>(warmup_s * 1e9);
  win_end_ = win_start_ + static_cast<std::int64_t>(window_s_ * 1e9);
  cap_deadline_ = win_end_ + kCapacityDeadlineNs;

  std::vector<std::thread> writer_threads, reader_threads;
  std::thread poller([this] { PollLoop(out_->spans.back().get()); });
  int wi = 0, ri = 0;
  const int readers = static_cast<int>(plan.size()) - writers;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    LoadThread& t = *threads_[i];
    const auto period = static_cast<std::int64_t>(1e9 / t.rate);
    SpanBuffer* spans = out_->spans[i].get();
    if (t.writer) {
      const std::int64_t first = start + period * wi / writers;
      writer_threads.emplace_back([this, &t, i, wi, spans, first] {
        LoadLoop(t, stats_[i], commits_[wi].get(), spans, first);
      });
      ++wi;
    } else {
      const std::int64_t first = start + period * ri / readers;
      reader_threads.emplace_back([this, &t, i, spans, first] {
        LoadLoop(t, stats_[i], nullptr, spans, first);
      });
      ++ri;
    }
  }

  // 2-3. Warm-up, then the measured window.
  SleepUntil(win_start_);
  const Counters c0 = ReadCounters(*cluster_);
  SleepUntil(win_end_);
  const Counters c1 = ReadCounters(*cluster_);
  AddWindow(c0, c1, &out_->totals);
  // What this sub-run's cluster holds resident: the process high-water mark
  // would include earlier sub-runs' capacity phases.
  out_->rss_mb.push_back(ResidentMb() - rss_before);
  if (cfg_.trace) {
    // O(rows + versions) walks: traced run only.
    out_->versions_primary.push_back(VersionsPerRow(cluster_->primary_db()));
    out_->versions_backup.push_back(VersionsPerRow(cluster_->backup(0).db()));
    out_->retired_pending.push_back(static_cast<double>(
        cluster_->backup(0).db().epochs().RetiredCountApprox()));
  }

  // 4. Capacity: writers commit the plan's transaction count closed loop and
  // exit; the value counts until every backup covers their last commit.
  for (auto& th : writer_threads) th.join();
  std::uint64_t cap_commits = 0;
  c5::Timestamp last_commit = 0;
  for (const ThreadStats& st : stats_) {
    cap_commits += st.capacity_commits;
    last_commit = std::max(last_commit, st.max_commit_ts);
  }
  WaitCovered(*cluster_, last_commit);
  out_->max_tps.push_back(
      Ratio(static_cast<double>(cap_commits),
            static_cast<double>(MonotonicNowNanos() - win_end_) / 1e9));
  stop_readers_.store(true, std::memory_order_release);
  for (auto& th : reader_threads) th.join();
  stop_poller_.store(true, std::memory_order_release);
  poller.join();

  // 5. Drain.
  cluster_->StopPrimary();
  cluster_->WaitForBackups();
  out_->apply.Merge(cluster_->backup(0).reader().ApplyLatencySnapshot());

  // 6. Correctness gate.
  GateReport gate;
  w_.Verify(&gate);
  out_->attempted += gate.checks;
  out_->failed += gate.violations;
  out_->invalid += gate.violations;
  for (std::string& msg : gate.messages) {
    out_->gate_violations.push_back("sub-run " + std::to_string(index_) +
                                    ": " + std::move(msg));
  }
  Collect();
  threads_.clear();  // sessions refer to the cluster's backup set
  w_.Teardown();
#if defined(__GLIBC__)
  // Hand the torn-down cluster's heap back, so the next sub-run's resident
  // set starts from the same place.
  malloc_trim(0);
#endif
}

void SubRun::Collect() {
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    const ThreadStats& st = stats_[i];
    for (int c = 0; c < 3; ++c) Append(&out_->latency_ns[c], st.latency_ns[c]);
    Append(&out_->gen_late_ns, st.gen_late_ns);
    Append(&out_->sampled_ns, st.sampled_ns);
    Append(&out_->unsampled_ns, st.unsampled_ns);
    out_->attempted += st.attempted;
    out_->failed += st.failed;
    out_->invalid += st.invalid;
    out_->window_done += static_cast<double>(st.window_done);
    out_->window_due += static_cast<double>(st.window_due);
  }
  for (const auto& t : threads_) {
    if (t->session == nullptr) continue;
    out_->session_reads += static_cast<double>(t->session->stats().reads);
    out_->session_waits += static_cast<double>(t->session->stats().waits);
  }
  Append(&out_->lag_ns, poll_.lag_ns);
  Append(&out_->sched_to_visible_ns, poll_.sched_to_visible_ns);
  Append(&out_->publish_gap_ns, poll_.publish_gap_ns);
  Append(&out_->poll_period_ns, poll_.poll_period_ns);
  Append(&out_->backlog, poll_.backlog);
  Append(&out_->lag_at_s, poll_.lag_at_s);
  Append(&out_->lag_ms, poll_.lag_ms);
  Append(&out_->rss_at_s, poll_.rss_at_s);
  Append(&out_->rss_series_mb, poll_.rss_mb);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "c5bench: %s\nusage: c5bench --workload {ingest|tpcc|read_mostly}"
               " [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]"
               " [--quick]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  bool seconds_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quick") {
      cfg.quick = true;
    } else if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.window_s = std::strtod(argv[++i], nullptr);
      seconds_set = true;
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      cfg.trace_out = argv[++i];
    } else {
      return Usage(("bad argument: " + arg).c_str());
    }
  }
  if (cfg.quick && !seconds_set) cfg.window_s = 2;
  if (!(cfg.window_s > 0 && cfg.window_s <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }
  std::unique_ptr<Workload> w;
  if (cfg.workload == "ingest") {
    w = MakeIngest();
  } else if (cfg.workload == "tpcc") {
    w = MakeTpcc();
  } else if (cfg.workload == "read_mostly") {
    w = MakeReadMostly();
  } else {
    return Usage("unknown or missing --workload");
  }

  const CpuSplit cpus;
  const int sub_runs = cfg.quick ? kQuickSubRuns : kSubRuns;
  Results results;
  for (int k = 0; k < sub_runs; ++k) {
    SubRun(cfg, *w, cpus, k, cfg.window_s / sub_runs, &results).Run();
  }
  Report(cfg, results);
  return results.invalid == 0 ? 0 : 1;
}

}  // namespace
}  // namespace c5bench

int main(int argc, char** argv) { return c5bench::Main(argc, argv); }
