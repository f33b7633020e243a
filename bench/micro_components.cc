// google-benchmark microbenchmarks for the substrate components: storage
// engine installs/reads, hash index, prefix tracker, epoch guards, log
// coalescing, scheduler preprocessing, wire encode/decode, CRC32C,
// checkpoint write/load, and session routing. These bound the
// per-operation costs that the figure-level benches aggregate.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <unordered_map>

#include "common/crc32c.h"
#include "common/rng.h"
#include "index/hash_index.h"
#include "log/log_collector.h"
#include "replica/prefix_tracker.h"
#include "log/wire.h"
#include "replica/session.h"
#include "replica/single_thread_replica.h"
#include "storage/checkpoint.h"
#include "storage/database.h"
#include "storage/table.h"

namespace c5 {
namespace {

void BM_TableInstallCommitted(benchmark::State& state) {
  storage::Table table("t");
  const RowId row = table.AllocateRow();
  Timestamp ts = 1;
  for (auto _ : state) {
    table.InstallCommitted(row, ts++, "12345678");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableInstallCommitted);

void BM_TableReadLatest(benchmark::State& state) {
  storage::Table table("t");
  const RowId row = table.AllocateRow();
  for (Timestamp ts = 1; ts <= 16; ++ts) {
    table.InstallCommitted(row, ts, "12345678");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.ReadLatestCommitted(row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableReadLatest);

void BM_TableReadAtDepth(benchmark::State& state) {
  // Cost of a snapshot read that must walk `depth` versions.
  storage::Table table("t");
  const RowId row = table.AllocateRow();
  const int depth = static_cast<int>(state.range(0));
  for (Timestamp ts = 1; ts <= static_cast<Timestamp>(depth + 1); ++ts) {
    table.InstallCommitted(row, ts, "12345678");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.ReadAt(row, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableReadAtDepth)->Arg(1)->Arg(8)->Arg(64);

void BM_TryInstallIfPrev(benchmark::State& state) {
  storage::Table table("t");
  const RowId row = table.AllocateRow();
  Timestamp ts = 1;
  table.InstallCommitted(row, ts, "x");
  for (auto _ : state) {
    table.TryInstallIfPrev(row, ts, ts + 1, "12345678");
    ++ts;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TryInstallIfPrev);

void BM_HashIndexInsert(benchmark::State& state) {
  index::HashIndex idx;
  Key key = 0;
  for (auto _ : state) {
    idx.Insert(key, key);
    ++key;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexInsert);

void BM_HashIndexLookupHit(benchmark::State& state) {
  index::HashIndex idx;
  constexpr Key kN = 100000;
  for (Key k = 0; k < kN; ++k) idx.Insert(k, k);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Lookup(rng.Uniform(kN)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexLookupHit);

void BM_PrefixTrackerMarkAdvance(benchmark::State& state) {
  replica::PrefixTracker pt(1 << 16);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    pt.Mark(seq, seq + 1);
    ++seq;
    if ((seq & 63) == 0) pt.Advance();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefixTrackerMarkAdvance);

void BM_EpochGuard(benchmark::State& state) {
  storage::EpochManager mgr;
  for (auto _ : state) {
    auto guard = mgr.Enter();
    benchmark::DoNotOptimize(&guard);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochGuard);

void BM_SchedulerPreprocess(benchmark::State& state) {
  // Cost per record of the C5 scheduler's prev_ts computation over a
  // working set of `range` rows.
  const std::uint64_t rows = static_cast<std::uint64_t>(state.range(0));
  std::unordered_map<std::uint64_t, Timestamp> last;
  Rng rng(2);
  Timestamp ts = 1;
  for (auto _ : state) {
    const std::uint64_t row = rng.Uniform(rows);
    auto [it, inserted] = last.try_emplace(row, 0);
    benchmark::DoNotOptimize(it->second);
    it->second = ts++;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerPreprocess)->Arg(1000)->Arg(1000000);

void BM_LogCoalesce(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    log::PerThreadLogCollector collector(1024);
    for (Timestamp ts = 1; ts <= 10000; ++ts) {
      std::vector<log::LogRecord> records(1);
      records[0].commit_ts = ts;
      records[0].row = ts;
      records[0].last_in_txn = true;
      collector.LogCommit(std::move(records));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(collector.Coalesce());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_LogCoalesce);


void BM_Crc32c(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_WireEncodeSegment(benchmark::State& state) {
  log::LogSegment seg(0);
  for (int i = 0; i < 256; ++i) {
    log::LogRecord rec;
    rec.table = 0;
    rec.row = i;
    rec.key = i;
    rec.commit_ts = i + 1;
    rec.last_in_txn = true;
    rec.value = "12345678";
    seg.Append(rec);
  }
  for (auto _ : state) {
    std::string out;
    log::EncodeSegment(seg, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_WireEncodeSegment);

void BM_WireDecodeSegment(benchmark::State& state) {
  log::LogSegment seg(0);
  for (int i = 0; i < 256; ++i) {
    log::LogRecord rec;
    rec.table = 0;
    rec.row = i;
    rec.key = i;
    rec.commit_ts = i + 1;
    rec.last_in_txn = true;
    rec.value = "12345678";
    seg.Append(rec);
  }
  std::string bytes;
  log::EncodeSegment(seg, &bytes);
  for (auto _ : state) {
    std::size_t consumed = 0;
    std::unique_ptr<log::LogSegment> decoded;
    benchmark::DoNotOptimize(
        log::DecodeSegment(bytes, &consumed, &decoded).ok());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_WireDecodeSegment);

void BM_CheckpointWrite(benchmark::State& state) {
  storage::Database db;
  const TableId t = db.CreateTable("bench");
  storage::Table& table = db.table(t);
  const auto rows = static_cast<RowId>(state.range(0));
  for (RowId r = 0; r < rows; ++r) {
    const RowId row = table.AllocateRow();
    table.InstallCommitted(row, r + 1, "payload-8");
    db.index(t).Upsert(r, row);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "c5_bm_ckpt.ckpt").string();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        storage::WriteCheckpoint(db, kMaxTimestamp, path).ok());
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckpointWrite)->Arg(1000)->Arg(100000);

void BM_SessionReadTokenRouted(benchmark::State& state) {
  // One caught-up backup; measures the session layer's routing overhead on
  // top of a raw snapshot Get.
  storage::Database db;
  const TableId t = db.CreateTable("bench");
  storage::Table& table = db.table(t);
  const RowId row = table.AllocateRow();
  table.InstallCommitted(row, 1, "payload-8");
  db.index(t).Upsert(7, row);
  replica::SingleThreadReplica backend(&db);
  log::Log empty;
  log::OfflineSegmentSource source(&empty);
  backend.Start(&source);
  backend.WaitUntilCaughtUp();

  replica::BackupSet set;
  set.Add(&backend);
  replica::ClientSession session(
      &set, {.policy = replica::RoutingPolicy::kTokenRouted});
  Value v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Read(t, 7, &v).ok());
  }
  backend.Stop();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionReadTokenRouted);

}  // namespace
}  // namespace c5

BENCHMARK_MAIN();
