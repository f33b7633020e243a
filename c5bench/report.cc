// Turns pooled measurements into named metrics: the end-to-end set for the
// untraced run, the per-layer set for the traced run. Prints one line per
// metric, then the JSON result line.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "results.h"
#include "stats.h"

namespace c5bench {
namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;  // 0: not a sampled statistic
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Q(std::vector<std::int64_t>& v, double p, double scale) {
  return Quantile(v, p) / scale;
}

// The end-to-end set: only metrics whose run-to-run spread on a shared
// 4-vCPU host stays well inside their regression bound (README.md,
// "Repeatability"). Microsecond-scale latencies and the capacity figure
// swing with the host's own speed and are reported with the per-layer set.
std::vector<Metric> EndToEnd(Results& r) {
  return {
      {"setup_s", Median(r.setup_s), "s", r.setup_s.size()},
      {"lag_p50_ms", Q(r.lag_ns, 0.5, 1e6), "ms", r.lag_ns.size()},
      {"rss_mb", Median(r.rss_mb), "MB", r.rss_mb.size()},
  };
}

// What clients see, beyond the end-to-end set: due-time latencies by
// request class, the lag tail and the capacity figure.
std::vector<Metric> ClientView(Results& r) {
  auto& commit = r.latency_ns[static_cast<int>(OpClass::kCommit)];
  auto& read = r.latency_ns[static_cast<int>(OpClass::kRead)];
  auto& query = r.latency_ns[static_cast<int>(OpClass::kQuery)];
  return {
      {"commit_p50_us", Q(commit, 0.5, 1e3), "us", commit.size()},
      {"commit_p99_us", Q(commit, 0.99, 1e3), "us", commit.size()},
      {"lag_p99_ms", Q(r.lag_ns, 0.99, 1e6), "ms", r.lag_ns.size()},
      {"read_p50_us", Q(read, 0.5, 1e3), "us", read.size()},
      {"read_p99_us", Q(read, 0.99, 1e3), "us", read.size()},
      {"query_p50_us", Q(query, 0.5, 1e3), "us", query.size()},
      {"query_p99_us", Q(query, 0.99, 1e3), "us", query.size()},
      {"max_replicated_tps", Median(r.max_tps), "txn/s", r.max_tps.size()},
  };
}

std::vector<Metric> PerLayer(const RunConfig& cfg, Results& r) {
  std::vector<const SpanBuffer*> bufs;
  std::uint64_t dropped = 0;
  for (const auto& b : r.spans) {
    bufs.push_back(b.get());
    dropped += b->dropped();
  }
  SpanSummary sum = Summarize(bufs);
  auto span = [&sum](SpanName n) -> SpanStats& {
    return sum[static_cast<std::size_t>(n)];
  };
  auto sp = [&](SpanName n, double p, double scale) {
    return Quantile(span(n).durations_ns, p) / scale;
  };
  auto n_of = [&](SpanName n) { return span(n).durations_ns.size(); };
  auto per_row = [&](SpanName n) {
    return Ratio(span(n).total_ns, static_cast<double>(span(n).rows));
  };
  const WindowTotals& t = r.totals;
  const double workers = static_cast<double>(t.worker_records.size());
  double max_records = 0, sum_records = 0;
  for (const double rec : t.worker_records) {
    max_records = std::max(max_records, rec);
    sum_records += rec;
  }

  std::vector<Metric> m = ClientView(r);
  // api.execute spans bracket Cluster::ExecuteWithRetry and tpcc::Run*.
  m.push_back({"api.execute_us_p50", sp(SpanName::kExecute, 0.5, 1e3), "us",
               n_of(SpanName::kExecute)});
  m.push_back({"api.execute_us_p99", sp(SpanName::kExecute, 0.99, 1e3), "us",
               n_of(SpanName::kExecute)});
  m.push_back({"api.snapshot_open_ns_p50", sp(SpanName::kSnapshotOpen, 0.5, 1),
               "ns", n_of(SpanName::kSnapshotOpen)});
  m.push_back({"api.session_read_us_p50", sp(SpanName::kSessionRead, 0.5, 1e3),
               "us", n_of(SpanName::kSessionRead)});
  m.push_back({"api.session_read_us_p99",
               sp(SpanName::kSessionRead, 0.99, 1e3), "us",
               n_of(SpanName::kSessionRead)});
  m.push_back({"api.session_wait_frac", Ratio(r.session_waits, r.session_reads),
               "ratio", 0});
  m.push_back({"txn.commit_ratio", Ratio(t.commits, t.commits + t.aborts),
               "ratio", 0});
  m.push_back({"txn.aborts_per_s", Ratio(t.aborts, t.seconds), "1/s", 0});
  m.push_back({"txn.user_aborts", t.user_aborts, "count", 0});
  const std::pair<const char*, SpanName> tpcc_spans[] = {
      {"txn.neworder_us", SpanName::kNewOrder},
      {"txn.payment_us", SpanName::kPayment},
      {"txn.delivery_us", SpanName::kDelivery}};
  for (const auto& [name, n] : tpcc_spans) {
    m.push_back({std::string(name) + "_p50", sp(n, 0.5, 1e3), "us", n_of(n)});
    m.push_back({std::string(name) + "_p99", sp(n, 0.99, 1e3), "us", n_of(n)});
  }
  m.push_back({"log.flush_us_p50", sp(SpanName::kFlush, 0.5, 1e3), "us",
               n_of(SpanName::kFlush)});
  m.push_back({"log.flush_us_p99", sp(SpanName::kFlush, 0.99, 1e3), "us",
               n_of(SpanName::kFlush)});
  m.push_back({"log.records_per_segment",
               Ratio(t.applied_writes, t.segments_sent), "records", 0});
  m.push_back({"net.bytes_per_write", Ratio(t.bytes_sent, t.applied_writes),
               "B", 0});
  m.push_back({"net.segments_per_s", Ratio(t.segments_sent, t.seconds), "1/s",
               0});
  m.push_back({"net.naks", t.naks, "count", 0});
  m.push_back({"net.retransmits", t.retransmits, "count", 0});
  m.push_back({"core.applied_writes_per_s", Ratio(t.applied_writes, t.seconds),
               "1/s", 0});
  m.push_back({"core.deferred_frac", Ratio(t.deferred, t.applied_writes),
               "ratio", 0});
  m.push_back({"core.apply_p50_ns", static_cast<double>(r.apply.Quantile(0.5)),
               "ns", r.apply.count()});
  m.push_back({"core.apply_p99_ns", static_cast<double>(r.apply.Quantile(0.99)),
               "ns", r.apply.count()});
  m.push_back({"core.worker_busy_frac",
               Ratio(t.worker_cpu_ns, t.worker_window_ns), "ratio", 0});
  m.push_back({"core.worker_skew",
               Ratio(max_records, Ratio(sum_records, workers)), "ratio", 0});
  m.push_back({"core.sched_to_visible_ms_p50",
               Q(r.sched_to_visible_ns, 0.5, 1e6), "ms",
               r.sched_to_visible_ns.size()});
  m.push_back({"core.sched_to_visible_ms_p99",
               Q(r.sched_to_visible_ns, 0.99, 1e6), "ms",
               r.sched_to_visible_ns.size()});
  m.push_back({"replica.publish_gap_ms_p50", Q(r.publish_gap_ns, 0.5, 1e6),
               "ms", r.publish_gap_ns.size()});
  m.push_back({"replica.publish_gap_ms_p99", Q(r.publish_gap_ns, 0.99, 1e6),
               "ms", r.publish_gap_ns.size()});
  m.push_back({"replica.publish_gap_ms_max", Max(r.publish_gap_ns) / 1e6, "ms",
               r.publish_gap_ns.size()});
  m.push_back({"replica.snapshots_per_s", Ratio(t.snapshots, t.seconds), "1/s",
               0});
  m.push_back({"replica.backlog_txns_p50", Q(r.backlog, 0.5, 1), "count",
               r.backlog.size()});
  m.push_back({"replica.backlog_txns_max", Max(r.backlog), "count",
               r.backlog.size()});
  m.push_back({"replica.lag_slope_ms_per_s", Slope(r.lag_at_s, r.lag_ms),
               "ms/s", r.lag_ms.size()});
  m.push_back({"storage.versions_per_row_primary", Median(r.versions_primary),
               "ratio", 0});
  m.push_back({"storage.versions_per_row_backup", Median(r.versions_backup),
               "ratio", 0});
  m.push_back({"storage.retired_pending", Median(r.retired_pending), "count",
               0});
  m.push_back({"storage.rss_growth_mb_per_s",
               Slope(r.rss_at_s, r.rss_series_mb), "MB/s",
               r.rss_series_mb.size()});
  m.push_back({"index.get_ns_p50", sp(SpanName::kIndexGet, 0.5, 1), "ns",
               n_of(SpanName::kIndexGet)});
  m.push_back({"index.scan_ns_per_row", per_row(SpanName::kIndexScan), "ns",
               n_of(SpanName::kIndexScan)});
  m.push_back({"index.aggregate_ns_per_row", per_row(SpanName::kIndexAggregate),
               "ns", n_of(SpanName::kIndexAggregate)});
  m.push_back({"workload.gen_late_us_p50", Q(r.gen_late_ns, 0.5, 1e3), "us",
               r.gen_late_ns.size()});
  m.push_back({"workload.gen_late_us_p99", Q(r.gen_late_ns, 0.99, 1e3), "us",
               r.gen_late_ns.size()});
  m.push_back({"workload.achieved_over_offered",
               Ratio(r.window_done, r.window_due), "ratio", 0});
  m.push_back({"workload.poll_period_us_p99", Q(r.poll_period_ns, 0.99, 1e3),
               "us", r.poll_period_ns.size()});
  // Sampled requests record spans and unsampled ones do not, on the same
  // threads at the same time, so the gap between their median latencies is
  // what recording costs a request.
  const double base = Quantile(r.unsampled_ns, 0.5);
  m.push_back({"trace_overhead_pct",
               base > 0 ? (Quantile(r.sampled_ns, 0.5) / base - 1) * 100 : 0,
               "%", r.sampled_ns.size()});

  std::printf("# layer self time over traced requests (%" PRIu64
              " spans dropped)\n",
              dropped);
  for (std::size_t i = 0; i < sum.size(); ++i) {
    if (sum[i].durations_ns.empty()) continue;
    std::printf("#   %-28s n=%-8zu total=%14.1f us  self=%14.1f us\n",
                ToString(static_cast<SpanName>(i)), sum[i].durations_ns.size(),
                sum[i].total_ns / 1e3, sum[i].self_ns / 1e3);
  }
  if (!cfg.trace_out.empty() && !WriteChromeTrace(cfg.trace_out, bufs, sum)) {
    std::fprintf(stderr, "c5bench: cannot write %s\n", cfg.trace_out.c_str());
  }
  return m;
}

}  // namespace

void Report(const RunConfig& cfg, Results& r) {
  const std::vector<Metric> m = cfg.trace ? PerLayer(cfg, r) : EndToEnd(r);
  std::printf("# workload=%s seed=%" PRIu64 " sub-runs=%zu measured=%.3fs "
              "trace=%d\n",
              cfg.workload.c_str(), cfg.seed, r.setup_s.size(),
              r.totals.seconds, cfg.trace ? 1 : 0);
  for (const Metric& x : m) {
    if (x.samples > 0) {
      std::printf("%-36s %16.6f %-6s (n=%zu)\n", x.name.c_str(), x.value,
                  x.unit.c_str(), x.samples);
    } else {
      std::printf("%-36s %16.6f %s\n", x.name.c_str(), x.value, x.unit.c_str());
    }
  }
  std::printf("%-36s %16.6f ratio (%" PRIu64 " of %" PRIu64 ")\n",
              "failed_frac",
              Ratio(static_cast<double>(r.failed),
                    static_cast<double>(r.attempted)),
              r.failed, r.attempted);
  for (const std::string& msg : r.gate_violations) {
    std::printf("# GATE VIOLATION: %s\n", msg.c_str());
  }
  if (r.invalid != 0) {
    std::printf("# INVALID: %" PRIu64 " wrong answers (seed %" PRIu64 ")\n",
                r.invalid, cfg.seed);
  }

  std::string json = "{\"correct\": ";
  json += r.invalid == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m[i].name.c_str(), m[i].value,
                  m[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace c5bench
