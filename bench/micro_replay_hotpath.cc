// Micro-benchmark for the replay hot path: version install, prev-checked
// install, GC retirement, and an end-to-end C5 replay of a synthesized log.
// Reports throughput, sampled p50/p99 latency, and allocations/op from the
// bench-wide counting hook — the numbers BENCH_replay.json tracks across PRs
// (see docs/PERFORMANCE.md for methodology).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "core/c5_replica.h"
#include "log/log_segment.h"
#include "storage/database.h"
#include "storage/table.h"

namespace c5 {
namespace {

constexpr std::size_t kRows = 1024;
// TPC-C row payloads here are 12-80 bytes; 64 is representative.
const std::string kPayload(64, 'v');

struct PhaseResult {
  double seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t allocs = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  double OpsPerSec() const {
    return seconds > 0 ? static_cast<double>(ops) / seconds : 0;
  }
  double AllocsPerOp() const {
    return ops > 0 ? static_cast<double>(allocs) / ops : 0;
  }
};

std::string PhaseJson(const PhaseResult& r) {
  return bench::JsonWriter()
      .Num("seconds", r.seconds)
      .Int("ops", r.ops)
      .Num("ops_per_sec", r.OpsPerSec())
      .Int("allocs", r.allocs)
      .Num("allocs_per_op", r.AllocsPerOp())
      .Int("p50_ns", r.p50_ns)
      .Int("p99_ns", r.p99_ns)
      .Object();
}

void PrintPhase(const char* name, const PhaseResult& r) {
  bench::PrintRow("%-22s %12.0f ops/s %8.3f allocs/op  p50 %6llu ns  p99 %6llu ns",
                  name, r.OpsPerSec(), r.AllocsPerOp(),
                  static_cast<unsigned long long>(r.p50_ns),
                  static_cast<unsigned long long>(r.p99_ns));
}

// Every op timed individually (adds ~clock overhead to the mean; the
// allocations/op and throughput columns are what the trajectory tracks).
template <typename Op>
PhaseResult RunTimedLoop(std::uint64_t ops, Op&& op) {
  Histogram lat;
  bench::AllocScope allocs;
  Stopwatch sw;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::int64_t t0 = MonotonicNowNanos();
    op(i);
    lat.Record(static_cast<std::uint64_t>(MonotonicNowNanos() - t0));
  }
  PhaseResult r;
  r.seconds = sw.ElapsedSeconds();
  r.allocs = allocs.Count();
  r.ops = ops;
  r.p50_ns = lat.Quantile(0.5);
  r.p99_ns = lat.Quantile(0.99);
  return r;
}

// Steady-state install cost: periodic GC keeps chains near the length a
// replica with gc_every enabled would see, so slab reuse (post-arena) and
// allocator behavior (pre-arena) are both exercised, not just cold growth.
PhaseResult BenchInstallCommitted(std::uint64_t ops) {
  storage::Table table("bench");
  storage::EpochManager epochs;
  for (std::size_t r = 0; r < kRows; ++r) table.AllocateRow();
  Timestamp ts = 0;
  auto result = RunTimedLoop(ops, [&](std::uint64_t i) {
    table.InstallCommitted(i % kRows, ++ts, kPayload);
    if ((i & 0xFFFF) == 0xFFFF) {
      table.CollectGarbage(ts - kRows, epochs);
      epochs.ReclaimSome();
    }
  });
  return result;
}

PhaseResult BenchTryInstallIfPrev(std::uint64_t ops) {
  storage::Table table("bench");
  storage::EpochManager epochs;
  std::vector<Timestamp> prev(kRows, kInvalidTimestamp);
  for (std::size_t r = 0; r < kRows; ++r) table.AllocateRow();
  Timestamp ts = 0;
  auto result = RunTimedLoop(ops, [&](std::uint64_t i) {
    const std::size_t row = i % kRows;
    ++ts;
    table.TryInstallIfPrev(row, prev[row], ts, kPayload);
    prev[row] = ts;
    if ((i & 0xFFFF) == 0xFFFF) {
      table.CollectGarbage(ts - kRows, epochs);
      epochs.ReclaimSome();
    }
  });
  return result;
}

// GC + reclamation cost in isolation: build chains, then truncate and free
// them in chunked sweeps with a stepped horizon — the shape a replica's
// periodic gc_every pass actually has. One monolithic CollectGarbage call
// would leave the latency histogram with a single sample (p50 = p99 = 0 in
// the report); per-sweep timing gives real percentiles, and the horizon
// steps make each sweep retire a comparable slice. ops = versions retired.
PhaseResult BenchGcRetire(std::uint64_t versions) {
  storage::Table table("bench");
  storage::EpochManager epochs;
  for (std::size_t r = 0; r < kRows; ++r) table.AllocateRow();
  Timestamp ts = 0;
  for (std::uint64_t i = 0; i < versions; ++i) {
    table.InstallCommitted(i % kRows, ++ts, kPayload);
  }
  const std::size_t before = table.CountVersionsApprox();
  constexpr std::uint64_t kSweeps = 256;
  Histogram lat;
  bench::AllocScope allocs;
  Stopwatch sw;
  for (std::uint64_t s = 1; s <= kSweeps; ++s) {
    // Final sweep at kMaxTimestamp retires everything left, matching the
    // old single-call total so ops stays comparable across runs.
    const Timestamp horizon =
        s == kSweeps ? kMaxTimestamp
                     : static_cast<Timestamp>(ts * s / kSweeps);
    const std::int64_t t0 = MonotonicNowNanos();
    table.CollectGarbage(horizon, epochs);
    epochs.ReclaimSome();
    lat.Record(static_cast<std::uint64_t>(MonotonicNowNanos() - t0));
  }
  epochs.ReclaimSome();
  PhaseResult r;
  r.seconds = sw.ElapsedSeconds();
  r.allocs = allocs.Count();
  r.ops = before - table.CountVersionsApprox();
  r.p50_ns = lat.Quantile(0.5);
  r.p99_ns = lat.Quantile(0.99);
  return r;
}

// Synthesizes a replication log directly (no primary engine) so the replay
// measurement isolates scheduler + worker + install + GC cost: `rows` rows,
// `writes` total writes round-robin, `writes_per_txn` records per commit.
log::Log SynthesizeLog(std::uint64_t rows, std::uint64_t writes,
                       std::uint32_t writes_per_txn,
                       std::size_t segment_records) {
  log::Log log;
  std::vector<bool> seen(rows, false);
  auto seg = std::make_unique<log::LogSegment>(/*base_seq=*/0);
  std::uint64_t seq = 0;
  Timestamp ts = 0;
  for (std::uint64_t i = 0; i < writes; ++i) {
    if (i % writes_per_txn == 0) ++ts;
    const RowId row = i % rows;
    log::LogRecord rec;
    rec.table = 0;
    rec.row = row;
    rec.key = row;
    rec.commit_ts = ts;
    rec.op = seen[row] ? OpType::kUpdate : OpType::kInsert;
    seen[row] = true;
    rec.last_in_txn =
        (i + 1) % writes_per_txn == 0 || i + 1 == writes;
    rec.value = kPayload;
    seg->Append(std::move(rec));
    // Transactions never span segment boundaries (§7.1).
    if (seg->size() >= segment_records && seg->records().back().last_in_txn) {
      seq += seg->size();
      log.AppendSegment(std::move(seg));
      seg = std::make_unique<log::LogSegment>(seq);
    }
  }
  if (!seg->empty()) log.AppendSegment(std::move(seg));
  return log;
}

// Fleet-model worker scaling: replay the same log through C5Replica
// directly at a given worker count and account each worker's applied
// records against its own CPU time (CLOCK_THREAD_CPUTIME_ID, via
// ReplicaBase::WorkerLoads). On a host with fewer cores than workers,
// wall-clock scaling measures the kernel scheduler, not the protocol; the
// fleet model instead asks how much log a worker stage of N CPUs could
// absorb: aggregate = total records / MAX per-worker CPU seconds (the
// slowest worker gates a real fleet's apply horizon). The scheduler
// thread's CPU is excluded by construction — this is worker-stage
// capacity; the scheduler stage pipelines ahead of it and is measured
// separately by ablation_scheduler.
struct WorkerScalingPoint {
  int workers = 0;
  std::uint64_t records = 0;
  double max_worker_cpu_s = 0;
  double aggregate_records_per_cpu_s = 0;
  std::vector<double> per_worker_records_per_cpu_s;
};

WorkerScalingPoint BenchWorkerScaling(log::Log& log, int workers) {
  storage::Database backup;
  backup.CreateTable("kv");
  log.ResetReplayState();
  log::OfflineSegmentSource source(&log);
  core::ProtocolOptions options;
  options.num_workers = workers;
  options.snapshot_interval = std::chrono::microseconds(100);
  options.scheduler_map_capacity = 4096 * 2;  // the log's row universe
  core::C5Replica replica(&backup, options);
  replica.Start(&source);
  replica.WaitUntilCaughtUp();
  replica.Stop();
  WorkerScalingPoint pt;
  pt.workers = workers;
  for (const auto& w : replica.WorkerLoads()) {
    const double cpu_s = static_cast<double>(w.cpu_ns) / 1e9;
    pt.records += w.applied_records;
    if (cpu_s > pt.max_worker_cpu_s) pt.max_worker_cpu_s = cpu_s;
    pt.per_worker_records_per_cpu_s.push_back(
        cpu_s > 0 ? static_cast<double>(w.applied_records) / cpu_s : 0);
  }
  pt.aggregate_records_per_cpu_s =
      pt.max_worker_cpu_s > 0
          ? static_cast<double>(pt.records) / pt.max_worker_cpu_s
          : 0;
  return pt;
}

}  // namespace
}  // namespace c5

int main(int argc, char** argv) {
  c5::bench::InitBenchRuntime();
  const std::string json_path = c5::bench::JsonOutputPath(argc, argv);

  const std::uint64_t ops = c5::bench::Scaled(400000);
  c5::bench::PrintHeader("micro: replay hot path (install / GC / C5 replay)");

  const auto install = c5::BenchInstallCommitted(ops);
  PrintPhase("install_committed", install);
  const auto prev = c5::BenchTryInstallIfPrev(ops);
  PrintPhase("try_install_if_prev", prev);
  const auto gc = c5::BenchGcRetire(ops / 2);
  PrintPhase("gc_retire", gc);

  // End-to-end C5 replay of a synthesized log, with GC active like a
  // long-running backup (gc_every) so retirement feeds allocation.
  c5::log::Log log = c5::SynthesizeLog(/*rows=*/4096, /*writes=*/ops,
                                       /*writes_per_txn=*/4,
                                       /*segment_records=*/256);
  c5::core::ProtocolOptions options;
  options.gc_every = 16;
  options.scheduler_map_capacity = 4096 * 2;  // the log's row universe
  const auto replay = c5::bench::ReplayLog(
      c5::core::ProtocolKind::kC5,  log,
      [](c5::storage::Database* db) { db->CreateTable("kv"); },
      c5::bench::DefaultWorkers(), options);
  c5::bench::PrintRow(
      "%-22s %12.0f writes/s %8.3f allocs/write  p50 %6llu ns  p99 %6llu ns",
      "replay_c5", replay.WritesPerSec(), replay.AllocsPerWrite(),
      static_cast<unsigned long long>(replay.apply_p50_ns),
      static_cast<unsigned long long>(replay.apply_p99_ns));

  // Worker scaling at 1/2/4 workers over the same log (fleet model:
  // records per max-worker CPU second; see BenchWorkerScaling above and
  // docs/PERFORMANCE.md for why wall clock is the wrong denominator here).
  std::vector<std::string> scaling_json;
  double scaling_base = 0;
  for (const int w : {1, 2, 4}) {
    const auto pt = c5::BenchWorkerScaling(log, w);
    if (w == 1) scaling_base = pt.aggregate_records_per_cpu_s;
    const double speedup =
        scaling_base > 0 ? pt.aggregate_records_per_cpu_s / scaling_base : 0;
    c5::bench::PrintRow(
        "replay_c5_workers=%-5d %12.0f recs/cpu-s (aggregate)  %5.2fx vs 1",
        pt.workers, pt.aggregate_records_per_cpu_s, speedup);
    std::vector<std::string> per_worker;
    per_worker.reserve(pt.per_worker_records_per_cpu_s.size());
    for (const double v : pt.per_worker_records_per_cpu_s) {
      per_worker.push_back(c5::bench::JsonNum(v));
    }
    scaling_json.push_back(
        c5::bench::JsonWriter()
            .Int("workers", static_cast<std::uint64_t>(pt.workers))
            .Int("records", pt.records)
            .Num("max_worker_cpu_s", pt.max_worker_cpu_s)
            .Num("aggregate_records_per_cpu_s",
                 pt.aggregate_records_per_cpu_s)
            .Num("speedup_vs_1", speedup)
            .Raw("per_worker_records_per_cpu_s",
                 c5::bench::JsonArray(per_worker))
            .Object());
  }

  const std::string json =
      c5::bench::JsonWriter()
          .Str("bench", "micro_replay_hotpath")
          .Int("ops", ops)
          .Raw("install_committed", c5::PhaseJson(install))
          .Raw("try_install_if_prev", c5::PhaseJson(prev))
          .Raw("gc_retire", c5::PhaseJson(gc))
          .Raw("replay_c5", c5::bench::ReplayResultJson(replay))
          .Str("worker_scaling_model",
               "fleet: aggregate = records / max per-worker CPU-s "
               "(CLOCK_THREAD_CPUTIME_ID); scheduler stage excluded")
          .Raw("worker_scaling", c5::bench::JsonArray(scaling_json))
          .Object();
  if (!c5::bench::WriteJsonFile(json_path, json)) return 1;
  return 0;
}
