// Set-up and gate steps every workload shares (declared in harness.h).

#include "harness.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "api/snapshot.h"

namespace c5bench {

void InsertIndexSentinels(c5::Cluster& cluster, std::size_t num_tables) {
  // One transaction, one row per table: each index receives exactly one
  // insert, so nothing can race it.
  c5::Timestamp ts = 0;
  const c5::Status s = cluster.ExecuteWithRetry(
      [num_tables](c5::txn::Txn& txn) {
        for (c5::TableId t = 0; t < num_tables; ++t) {
          const c5::Status st =
              txn.Put(t, kSentinelKey, MakeValue(kSentinelKey, 0));
          if (!st.ok()) return st;
        }
        return c5::Status::Ok();
      },
      &ts);
  if (!s.ok()) {
    std::fprintf(stderr, "c5bench: sentinel insert failed: %s\n",
                 s.ToString().c_str());
    std::exit(3);
  }
  WaitCovered(cluster, ts);
}

void WaitCovered(c5::Cluster& cluster, c5::Timestamp ts) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  for (std::size_t b = 0; b < cluster.num_backups(); ++b) {
    while (cluster.backup(b).VisibleTimestamp() < ts) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "c5bench: backup %zu stopped at ts %llu < %llu\n",
                     b,
                     static_cast<unsigned long long>(
                         cluster.backup(b).VisibleTimestamp()),
                     static_cast<unsigned long long>(ts));
        std::exit(3);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

std::vector<Digest> VerifyReplicasMatchPrimary(c5::Cluster& cluster,
                                               std::size_t num_tables,
                                               GateReport* report) {
  // The primary is stopped and every backup drained, so the clock's latest
  // value is settled once no transaction is in flight below it.
  const c5::Timestamp ts = cluster.clock().Latest();
  while (cluster.PrimaryLogHorizon() <= ts) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  // The export is split by key hash so it never materializes a whole
  // large table at once; the digest does not care about order.
  constexpr std::uint64_t kParts = 8;
  std::vector<Digest> primary(num_tables);
  std::vector<c5::ExportedRow> rows;
  for (c5::TableId t = 0; t < num_tables; ++t) {
    for (std::uint64_t part = 0; part < kParts; ++part) {
      rows.clear();
      const c5::Status s = cluster.ExportRows(
          t, [part](c5::Key k) { return Mix64(k) % kParts == part; }, ts,
          &rows);
      report->Check(s.ok(), "ExportRows failed: " + s.ToString());
      for (const c5::ExportedRow& row : rows) primary[t].Add(row.key, row.value);
    }
    for (std::size_t b = 0; b < cluster.num_backups(); ++b) {
      Digest backup;
      const c5::Snapshot snap = cluster.OpenSnapshot(b);
      for (auto it = snap.Scan(t, 0, ~c5::Key{0}); it.Valid(); it.Next()) {
        backup.Add(it.key(), it.value());
      }
      report->Check(backup == primary[t],
                    "table " + std::to_string(t) + " on backup " +
                        std::to_string(b) + " differs from the primary (" +
                        std::to_string(backup.rows) + " vs " +
                        std::to_string(primary[t].rows) + " rows)");
    }
  }
  return primary;
}

}  // namespace c5bench
