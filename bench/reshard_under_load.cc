// Resharding under load: live-migration impact on serving throughput
// (BENCH_shards.json, "reshard_under_load" row).
//
// The live-resharding path (api/sharded_cluster.h, Rebalance) promises that
// only the MOVING partitions ever block writes, and only for the brief
// cutover fence. This bench puts a number on that promise: a 2-shard
// ShardedCluster serves closed-loop routed writes from client threads while
// Rebalance moves roughly half of shard 0's tokens to shard 1 mid-run. A
// sampler drains the fleet-wide commit counter into fixed-width time buckets,
// giving a throughput timeline across three windows:
//
//   baseline  -> steady-state closed-loop throughput before the migration;
//   migration -> the copy/tail/cutover window (Rebalance start to return);
//   recovery  -> post-cutover, until throughput is back near baseline.
//
// Reported metrics:
//   dip_pct          = 1 - (slowest migration-window bucket / baseline), in
//                      percent — the worst transient the migration inflicted;
//   recovery_seconds = time from cutover (Rebalance return) until the first
//                      bucket at >= 90% of baseline (0 when the very first
//                      post-cutover bucket already qualifies).
//
// The run doubles as an integrity check: it fails (nonzero exit) if the
// migration errors, the epoch does not advance, nothing was bulk-copied, or
// the post-cutover placement audit (VerifyPlacement) reports a stray key.
//
//   bench_reshard_under_load [--json out.json] [--quick]
//
// --quick: tiny scale smoke run (wired into ctest) proving the harness, the
// migration-under-load path, and the JSON schema stay valid; committed
// numbers come from scripts/bench.sh.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/sharded_cluster.h"
#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/shard_router.h"

namespace c5 {
namespace {

const std::string kPayload(64, 'v');  // same row payload as shard_scaling

struct RunParams {
  std::uint64_t keyspace = 4096;
  int clients = 4;
  int bucket_ms = 50;
  int baseline_buckets = 20;       // 1s of steady state at 50ms buckets
  int max_recovery_buckets = 100;  // give up declaring recovery after 5s
};

struct RunResult {
  // Timeline of per-bucket committed-txn counts (bucket i covers
  // [i, i+1) * bucket_ms, from sampling start).
  std::vector<std::uint64_t> buckets;
  int migration_first_bucket = 0;  // first bucket overlapping the migration
  int migration_last_bucket = 0;   // last bucket overlapping the migration
  double migration_seconds = 0;
  double baseline_txns_per_sec = 0;
  double min_migration_txns_per_sec = 0;
  double dip_pct = 0;
  double recovery_seconds = 0;
  bool recovered = false;
  MigrationReport report;
  std::size_t moves = 0;
  std::string error;  // non-empty = the run is invalid

  bool ok() const { return error.empty(); }
};

RunResult Run(const RunParams& p, int workers) {
  RunResult out;

  ShardedClusterOptions options;
  options.WithShards(2).WithRouterSeed(0xC5'5EEDull);
  options.shard.WithBackups(1).WithWorkers(workers);
  ShardedCluster fleet(options);
  const TableId table = fleet.CreateTable("kv");
  fleet.Start();

  // Seed every key so the migration copies real rows, not an empty set.
  for (Key k = 0; k < p.keyspace; ++k) {
    const Status s = fleet.ExecuteWithRetry(
        table, k, [&](txn::Txn& txn) { return txn.Put(table, k, kPayload); });
    if (!s.ok()) {
      out.error = "seed write failed: " + s.message();
      return out;
    }
  }

  // The plan: every other shard-0 token moves to shard 1 (roughly a quarter
  // of the keyspace — enough that the copy window spans multiple buckets at
  // full scale).
  MigrationPlan plan;
  bool take = true;
  for (Key k = 0; k < p.keyspace; ++k) {
    if (fleet.ShardOf(table, k) != 0) continue;
    if (take) plan.push_back(ShardMove{table, k, 0, 1});
    take = !take;
  }
  out.moves = plan.size();
  if (plan.empty()) {
    out.error = "degenerate router partition: shard 0 owns no keys";
    return out;
  }

  // Closed-loop clients: uniform routed Puts over the whole keyspace, one
  // commit per loop, counted fleet-wide. Writes to fenced (moving) tokens
  // back off inside ExecuteWithRetry — that stall is exactly the dip under
  // measurement.
  std::atomic<std::uint64_t> committed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  clients.reserve(p.clients);
  for (int c = 0; c < p.clients; ++c) {
    clients.emplace_back([&, c] {
      std::uint64_t x = 0x9E3779B97F4A7C15ull * (c + 1);  // per-thread stream
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;  // xorshift64
        const Key k = x % p.keyspace;
        if (fleet
                .ExecuteWithRetry(
                    table, k,
                    [&](txn::Txn& txn) { return txn.Put(table, k, kPayload); })
                .ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Sampler: drain the commit counter into bucket_ms-wide buckets. The
  // migration thread is launched after the baseline window; buckets keep
  // filling throughout and for up to max_recovery_buckets afterwards.
  const auto bucket = std::chrono::milliseconds(p.bucket_ms);
  Stopwatch wall;
  std::uint64_t last = 0;
  auto sample = [&] {
    std::this_thread::sleep_for(bucket);
    const std::uint64_t now = committed.load(std::memory_order_relaxed);
    out.buckets.push_back(now - last);
    last = now;
  };
  for (int i = 0; i < p.baseline_buckets; ++i) sample();

  const double mig_start = wall.ElapsedSeconds();
  out.migration_first_bucket = static_cast<int>(out.buckets.size());
  Status mig_status = Status::Ok();
  std::atomic<bool> mig_done{false};
  std::thread migrator([&] {
    mig_status = fleet.Rebalance(plan, &out.report);
    mig_done.store(true, std::memory_order_release);
  });
  while (!mig_done.load(std::memory_order_acquire)) sample();
  migrator.join();
  out.migration_last_bucket = static_cast<int>(out.buckets.size()) - 1;
  out.migration_seconds = wall.ElapsedSeconds() - mig_start;

  // Recovery window: sample until a bucket is back at >= 90% of baseline
  // (or the cap runs out — then recovery_seconds is the whole window and
  // `recovered` stays false).
  const double bucket_s = static_cast<double>(p.bucket_ms) / 1000.0;
  double baseline_sum = 0;
  for (int i = 0; i < p.baseline_buckets; ++i) baseline_sum += out.buckets[i];
  out.baseline_txns_per_sec =
      baseline_sum / (p.baseline_buckets * bucket_s);
  const double threshold = 0.9 * out.baseline_txns_per_sec;
  int recovery_buckets = 0;
  for (int i = 0; i < p.max_recovery_buckets; ++i) {
    sample();
    ++recovery_buckets;
    if (static_cast<double>(out.buckets.back()) / bucket_s >= threshold) {
      out.recovered = true;
      break;
    }
  }
  // "Recovered at bucket 1" means the first full post-cutover bucket was
  // already at baseline: report 0 extra seconds of degradation.
  out.recovery_seconds = out.recovered ? (recovery_buckets - 1) * bucket_s
                                       : recovery_buckets * bucket_s;

  stop.store(true);
  for (auto& t : clients) t.join();

  // Integrity: the bench is meaningless if the migration did not really run.
  if (!mig_status.ok()) {
    out.error = "Rebalance failed: " + mig_status.message();
    return out;
  }
  if (out.report.epoch != 1) {
    out.error = "cutover did not advance the epoch";
    return out;
  }
  if (out.report.rows_copied == 0) {
    out.error = "migration copied no rows";
    return out;
  }
  fleet.Flush();
  fleet.WaitForBackups();
  const std::vector<std::string> violations = fleet.VerifyPlacement();
  if (!violations.empty()) {
    out.error = "placement audit failed: " + violations.front();
    return out;
  }

  double min_wps = -1;
  for (int i = out.migration_first_bucket; i <= out.migration_last_bucket;
       ++i) {
    const double wps = static_cast<double>(out.buckets[i]) / bucket_s;
    if (min_wps < 0 || wps < min_wps) min_wps = wps;
  }
  out.min_migration_txns_per_sec = min_wps < 0 ? 0 : min_wps;
  out.dip_pct =
      out.baseline_txns_per_sec > 0
          ? 100.0 * (1.0 - out.min_migration_txns_per_sec /
                               out.baseline_txns_per_sec)
          : 0;
  out.dip_pct = std::max(0.0, out.dip_pct);

  fleet.Shutdown();
  return out;
}

std::string ResultJson(const RunParams& p, const RunResult& r, int workers) {
  std::vector<std::string> timeline;
  timeline.reserve(r.buckets.size());
  for (const std::uint64_t b : r.buckets) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(b));
    timeline.push_back(buf);
  }
  return bench::JsonWriter()
      .Str("bench", "reshard_under_load")
      .Int("shards", 2)
      .Int("keyspace", p.keyspace)
      .Int("clients", static_cast<std::uint64_t>(p.clients))
      .Int("workers_per_shard", static_cast<std::uint64_t>(workers))
      .Int("bucket_ms", static_cast<std::uint64_t>(p.bucket_ms))
      .Int("moves", r.moves)
      .Num("baseline_txns_per_sec", r.baseline_txns_per_sec)
      .Num("min_migration_txns_per_sec", r.min_migration_txns_per_sec)
      .Num("dip_pct", r.dip_pct)
      .Num("migration_seconds", r.migration_seconds)
      .Num("recovery_seconds", r.recovery_seconds)
      .Raw("recovered", r.recovered ? "true" : "false")
      .Int("rows_copied", r.report.rows_copied)
      .Int("tail_records", r.report.tail_records)
      .Int("rows_deleted", r.report.rows_deleted)
      .Int("epoch", r.report.epoch)
      .Raw("timeline_txns_per_bucket", bench::JsonArray(timeline))
      .Object();
}

}  // namespace
}  // namespace c5

int main(int argc, char** argv) {
  c5::bench::InitBenchRuntime();
  const std::string json_path = c5::bench::JsonOutputPath(argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  c5::RunParams params;
  params.keyspace = c5::bench::Scaled(4096);
  if (quick) {
    // Smoke scale: prove the migration-under-load path and the JSON schema,
    // not the numbers. A short baseline and a tight recovery cap keep the
    // ctest run to a couple of seconds.
    params.keyspace = std::min<std::uint64_t>(params.keyspace, 512);
    params.clients = 2;
    params.bucket_ms = 25;
    params.baseline_buckets = 8;
    params.max_recovery_buckets = 40;
  }
  // Two apply workers per group: the serving path under test is the routed
  // write path, not replay scaling (C5_BENCH_WORKERS overrides).
  const int workers =
      std::getenv("C5_BENCH_WORKERS") != nullptr ? c5::bench::DefaultWorkers()
                                                 : 2;

  c5::bench::PrintHeader(
      "reshard_under_load: serving throughput while Rebalance moves half of "
      "shard 0's tokens (2 shards, closed-loop routed writes)");

  const c5::RunResult r = c5::Run(params, workers);
  if (!r.ok()) {
    std::fprintf(stderr, "reshard_under_load: %s\n", r.error.c_str());
    return 1;
  }

  c5::bench::PrintRow("baseline:   %12.0f txns/s (%d x %dms buckets)",
                      r.baseline_txns_per_sec, params.baseline_buckets,
                      params.bucket_ms);
  c5::bench::PrintRow(
      "migration:  %zu tokens in %.3fs (%zu rows copied, %zu tail records, "
      "%zu residue deletes)",
      r.moves, r.migration_seconds, r.report.rows_copied,
      r.report.tail_records, r.report.rows_deleted);
  c5::bench::PrintRow("worst dip:  %12.0f txns/s (-%.1f%% vs baseline)",
                      r.min_migration_txns_per_sec, r.dip_pct);
  c5::bench::PrintRow("recovery:   %.3fs to >=90%% of baseline%s",
                      r.recovery_seconds,
                      r.recovered ? "" : " (NOT reached within the window)");

  if (!c5::bench::WriteJsonFile(json_path, c5::ResultJson(params, r, workers)))
    return 1;
  return 0;
}
