// Everything one c5bench process measured, pooled over its sub-runs, and
// the report that turns it into named metrics (report.cc).

#ifndef C5BENCH_RESULTS_H_
#define C5BENCH_RESULTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "harness.h"
#include "trace.h"

namespace c5bench {

// Counter deltas over measured windows, summed across sub-runs.
struct WindowTotals {
  double seconds = 0;
  double commits = 0, aborts = 0, user_aborts = 0;
  double applied_writes = 0, deferred = 0, snapshots = 0;
  double segments_sent = 0, bytes_sent = 0, naks = 0, retransmits = 0;
  double worker_cpu_ns = 0, worker_window_ns = 0;  // busy / available
  std::vector<double> worker_records;  // per C5 replay worker
};

struct Results {
  // One value per sub-run.
  std::vector<double> setup_s, max_tps, rss_mb;
  std::vector<double> versions_primary, versions_backup, retired_pending;

  // Samples pooled over every sub-run's measured window.
  std::vector<std::int64_t> latency_ns[3];  // by OpClass
  std::vector<std::int64_t> lag_ns, sched_to_visible_ns, publish_gap_ns,
      poll_period_ns, backlog, gen_late_ns;
  std::vector<std::int64_t> sampled_ns, unsampled_ns;  // traced run only
  // (seconds since the sub-run's window start, value) series for slopes.
  std::vector<double> lag_at_s, lag_ms, rss_at_s, rss_series_mb;

  WindowTotals totals;
  c5::Histogram apply;  // backup 0's sampled per-record apply latency
  double session_reads = 0, session_waits = 0;
  double window_due = 0, window_done = 0;  // window requests

  std::uint64_t attempted = 0, failed = 0, invalid = 0;
  std::vector<std::string> gate_violations;  // one line each, by sub-run

  // Traced run: one buffer per load-thread slot plus the poller's.
  std::vector<std::unique_ptr<SpanBuffer>> spans;
};

// Prints every metric (human-readable lines, then the JSON result line).
void Report(const RunConfig& cfg, Results& r);

}  // namespace c5bench

#endif  // C5BENCH_RESULTS_H_
