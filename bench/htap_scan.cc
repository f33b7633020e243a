// HTAP range-read harness (PR 10): proves Snapshot::Scan cost scales with
// |matches|, not |table|, by comparing three read strategies on a backup
// replica over a large replicated table:
//
//   collectrange  — the pre-PR-10 Scan backing: HashIndex::CollectRange
//                   walks EVERY slot of every shard (O(|table|)), copies and
//                   sorts the match set, then resolves versions. Kept as the
//                   measured baseline.
//   stream        — Snapshot::Scan: one ordered-index cursor, O(log n)
//                   positioning + O(|matches|) steps, nothing materialized.
//   aggregate     — Snapshot::Aggregate: the same walk with the fold pushed
//                   inside it (no values surface at all).
//
// The headline metric is speedup_stream_vs_collectrange on the narrowest
// range: with >= 1M keys and a 64-key range the streaming scan must beat the
// CollectRange baseline by >= 10x (ISSUE acceptance). Feeds BENCH_htap.json
// via scripts/bench.sh; --quick is the ctest smoke mode.

#include "bench/bench_util.h"

#include <cinttypes>
#include <cstring>

#include "api/snapshot.h"
#include "workload/synthetic.h"

namespace c5::bench {
namespace {

struct RangeResult {
  std::uint64_t range_keys = 0;
  std::uint64_t matches = 0;
  double collectrange_ns = 0;  // per scan
  double stream_ns = 0;        // per scan
  double aggregate_ns = 0;     // per scan
  double stream_allocs = 0;    // per scan
  double speedup = 0;          // collectrange_ns / stream_ns
};

// The old iterator's exact work: materialize + sort the whole match set,
// then resolve each binding's version at the snapshot.
std::uint64_t CollectRangeScan(replica::ReplicaBase& base,
                               storage::Database& db, TableId table, Key lo,
                               Key hi, std::uint64_t* checksum) {
  std::uint64_t matches = 0;
  const c5::Snapshot snap = base.OpenSnapshot();
  std::vector<std::pair<Key, RowId>> out;
  db.index(table).CollectRange(lo, hi, &out);
  storage::Table& tbl = db.table(table);
  for (const auto& [key, row] : out) {
    (void)key;
    const storage::Version* v = tbl.ReadAt(row, snap.timestamp());
    if (v == nullptr || v->deleted) continue;
    std::uint64_t value = 0;
    std::memcpy(&value, v->value().data(), sizeof(value));
    *checksum += value;
    ++matches;
  }
  return matches;
}

std::uint64_t StreamScan(replica::ReplicaBase& base, TableId table, Key lo,
                         Key hi, std::uint64_t* checksum) {
  std::uint64_t matches = 0;
  const c5::Snapshot snap = base.OpenSnapshot();
  for (auto it = snap.Scan(table, lo, hi); it.Valid(); it.Next()) {
    std::uint64_t value = 0;
    std::memcpy(&value, it.value().data(), sizeof(value));
    *checksum += value;
    ++matches;
  }
  return matches;
}

RangeResult MeasureRange(replica::ReplicaBase& base, storage::Database& db,
                         TableId table, Key lo, std::uint64_t range_keys,
                         int baseline_reps, int stream_reps) {
  RangeResult r;
  r.range_keys = range_keys;
  const Key hi = lo + range_keys;

  // Correctness cross-check before timing: all three strategies must agree.
  std::uint64_t sum_collect = 0, sum_stream = 0;
  const std::uint64_t m_collect =
      CollectRangeScan(base, db, table, lo, hi, &sum_collect);
  const std::uint64_t m_stream = StreamScan(base, table, lo, hi, &sum_stream);
  AggSpec spec;
  spec.op = AggOp::kSum;
  const AggResult agg = base.OpenSnapshot().Aggregate(table, lo, hi, spec);
  if (m_collect != m_stream || m_stream != agg.rows ||
      sum_collect != sum_stream || sum_stream != agg.sum) {
    std::fprintf(stderr,
                 "strategy disagreement on [%" PRIu64 ", %" PRIu64
                 "): collect %" PRIu64 "/%" PRIu64 " stream %" PRIu64
                 "/%" PRIu64 " agg %" PRIu64 "/%" PRIu64 "\n",
                 static_cast<std::uint64_t>(lo),
                 static_cast<std::uint64_t>(hi), m_collect, sum_collect,
                 m_stream, sum_stream, agg.rows, agg.sum);
    std::exit(1);
  }
  r.matches = m_stream;

  std::uint64_t sink = 0;
  {
    Stopwatch sw;
    for (int i = 0; i < baseline_reps; ++i) {
      CollectRangeScan(base, db, table, lo, hi, &sink);
    }
    r.collectrange_ns = sw.ElapsedSeconds() * 1e9 / baseline_reps;
  }
  {
    AllocScope allocs;
    Stopwatch sw;
    for (int i = 0; i < stream_reps; ++i) {
      StreamScan(base, table, lo, hi, &sink);
    }
    r.stream_ns = sw.ElapsedSeconds() * 1e9 / stream_reps;
    r.stream_allocs = static_cast<double>(allocs.Count()) / stream_reps;
  }
  {
    Stopwatch sw;
    for (int i = 0; i < stream_reps; ++i) {
      sink += base.OpenSnapshot().Aggregate(table, lo, hi, spec).sum;
    }
    r.aggregate_ns = sw.ElapsedSeconds() * 1e9 / stream_reps;
  }
  if (sink == 0xdeadbeef) std::printf("(impossible)\n");  // keep sink live
  r.speedup = r.stream_ns > 0 ? r.collectrange_ns / r.stream_ns : 0;
  return r;
}

int Run(int argc, char** argv) {
  InitBenchRuntime();
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  // Acceptance demands the baseline pay a >= 1M-key table; --quick keeps
  // ctest fast with a table still big enough to show the asymmetry.
  const std::uint64_t table_keys =
      quick ? (std::uint64_t{1} << 16) : Scaled(std::uint64_t{1} << 20);
  const std::uint32_t writes_per_txn = 128;

  PrintHeader(quick ? "HTAP scan cost (quick smoke)"
                    : "HTAP scan cost: |matches| vs |table|");
  std::printf("table_keys=%" PRIu64 "\n", table_keys);

  // Build the table on a primary and replay it through C5 into a backup —
  // the ordered index is maintained by the apply path, exactly as in
  // production HTAP serving.
  auto primary = OfflinePrimary::Tpl();
  const TableId table = primary->db.CreateTable("kv");
  for (std::uint64_t k = 0; k < table_keys; k += writes_per_txn) {
    const Status s = primary->engine->ExecuteWithRetry([&](txn::Txn& txn) {
      for (std::uint32_t i = 0; i < writes_per_txn && k + i < table_keys;
           ++i) {
        const Status st =
            txn.Insert(table, k + i, workload::EncodeIntValue(k + i));
        if (!st.ok()) return st;
      }
      return Status::Ok();
    });
    if (!s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.message().c_str());
      return 1;
    }
  }
  log::Log log = primary->collector.Coalesce();

  storage::Database backup;
  backup.CreateTable("kv");
  log::OfflineSegmentSource source(&log);
  core::ProtocolOptions options;
  options.num_workers = DefaultWorkers();
  auto replica = core::MakeReplica(core::ProtocolKind::kC5, &backup, options);
  Stopwatch replay_sw;
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  const double replay_seconds = replay_sw.ElapsedSeconds();

  const int baseline_reps = quick ? 3 : 5;
  std::vector<RangeResult> rows;
  for (const std::uint64_t range :
       {std::uint64_t{64}, std::uint64_t{1} << 12, std::uint64_t{1} << 16}) {
    if (range > table_keys) continue;
    // Mid-table start so neither strategy gets an edge from key locality.
    const Key lo = (table_keys - range) / 2;
    const int stream_reps =
        quick ? 10 : (range <= 64 ? 2000 : (range <= 4096 ? 200 : 20));
    rows.push_back(MeasureRange(*replica, backup, table, lo, range,
                                baseline_reps, stream_reps));
  }

  PrintRow("%-12s %-10s %16s %14s %14s %10s %14s", "range", "matches",
           "collectrange_ns", "stream_ns", "aggregate_ns", "speedup",
           "stream_allocs");
  for (const RangeResult& r : rows) {
    PrintRow("%-12" PRIu64 " %-10" PRIu64 " %16.0f %14.0f %14.0f %9.1fx %14.2f",
             r.range_keys, r.matches, r.collectrange_ns, r.stream_ns,
             r.aggregate_ns, r.speedup, r.stream_allocs);
  }

  // The acceptance gate: narrow-range streaming >= 10x over CollectRange.
  // Only meaningful at full scale — a quick run's table is small enough
  // that both strategies are fast, so the smoke only sanity-checks > 1x.
  const double narrow_speedup = rows.empty() ? 0 : rows.front().speedup;
  const double required = quick ? 1.0 : 10.0;
  if (narrow_speedup < required) {
    std::fprintf(stderr,
                 "narrow-range speedup %.1fx below the %.0fx bar\n",
                 narrow_speedup, required);
    return 1;
  }

  const std::string json_path = JsonOutputPath(argc, argv);
  if (!json_path.empty()) {
    std::vector<std::string> row_objs;
    for (const RangeResult& r : rows) {
      row_objs.push_back(JsonWriter()
                             .Int("range_keys", r.range_keys)
                             .Int("matches", r.matches)
                             .Num("collectrange_ns_per_scan", r.collectrange_ns)
                             .Num("stream_ns_per_scan", r.stream_ns)
                             .Num("aggregate_ns_per_scan", r.aggregate_ns)
                             .Num("speedup_stream_vs_collectrange", r.speedup)
                             .Num("stream_allocs_per_scan", r.stream_allocs)
                             .Object());
    }
    const std::string json =
        JsonWriter()
            .Int("table_keys", table_keys)
            .Num("replay_seconds", replay_seconds)
            .Num("narrow_range_speedup", narrow_speedup)
            .Raw("rows", JsonArray(row_objs))
            .Object();
    if (!WriteJsonFile(json_path, json)) return 1;
  }

  replica->Stop();
  return 0;
}

}  // namespace
}  // namespace c5::bench

int main(int argc, char** argv) { return c5::bench::Run(argc, argv); }
