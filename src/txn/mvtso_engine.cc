#include "txn/mvtso_engine.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "storage/table.h"
#include "storage/version.h"

namespace c5::txn {

using storage::InstallResult;
using storage::Version;
using storage::VersionStatus;

namespace {

struct ReadEntry {
  TableId table;
  RowId row;
  const Version* observed;  // nullptr = observed absence of any version
};

// MVTSO's per-thread scratch: the shared write set plus the read set and
// the pending versions installed so far, all recycled across transactions.
struct MvtsoScratch {
  WriteSet writes;
  std::vector<ReadEntry> reads;
  std::vector<std::pair<const BufferedWrite*, Version*>> installed;

  void Clear() {
    writes.Clear();
    reads.clear();
    installed.clear();
  }
};

// Newest non-aborted version with write_ts strictly below `ts`, waiting out
// pending versions (their writers resolve promptly). Unlike Table::ReadAt,
// excludes write_ts == ts so a transaction never self-waits on its own
// pending versions during validation.
const Version* NewestCommittedBelow(const storage::Table& table, RowId row,
                                    Timestamp ts) {
  // Table::ReadAt(ts - 1) implements exactly "newest committed <= ts - 1".
  if (ts == 0) return nullptr;
  return table.ReadAt(row, ts - 1);
}

}  // namespace

class MvtsoEngine::MvtsoTxn : public BufferedTxn<MvtsoTxn> {
 public:
  using Scratch = MvtsoScratch;

  // Registers with the active-transaction tracker before drawing the
  // timestamp, so LogHorizon() never passes it.
  MvtsoTxn(MvtsoScratch& scratch, MvtsoEngine* engine)
      : BufferedTxn(*engine->db_, scratch.writes),
        engine_(engine),
        scope_(&engine->active_),
        ts_(engine->clock_->Next()),
        s_(scratch) {
    scope_.Set(ts_);
  }

  Timestamp timestamp() const override { return ts_; }

  // BufferedTxn hooks. Validation already makes read-modify-write safe, so
  // writes claim nothing and ReadForUpdate is a plain read.
  Status Claim(TableId, RowId) { return Status::Ok(); }
  Timestamp ReadPoint() const { return ts_; }

  const Version* ReadVisible(TableId table, RowId row) {
    const Version* v = db_.table(table).ReadAt(row, ts_);
    // Record the observation (including observed absence) for validation.
    s_.reads.push_back(ReadEntry{table, row, v});
    if (v != nullptr && !v->deleted) const_cast<Version*>(v)->ObserveRead(ts_);
    return v;
  }

  // Installs pending versions, validates reads, logs, and commits. A failed
  // step returns kAborted; Rollback then unlinks what was installed.
  Status Commit() {
    // (1) Sort the write set (one write per row) by (table, row) for
    // determinism.
    const std::span<BufferedWrite> writes = writes_.writes();
    std::sort(writes.begin(), writes.end(),
              [](const BufferedWrite& a, const BufferedWrite& b) {
                return std::tie(a.table, a.row) < std::tie(b.table, b.row);
              });

    // (2) Install pending versions.
    for (const BufferedWrite& w : writes) {
      storage::Table& table = db_.table(w.table);
      // Allocated from the table's arena; the payload is copied once, here.
      Version* v =
          table.NewPendingVersion(ts_, w.value, w.op == OpType::kDelete);
      const InstallResult res = table.TryInstallPending(w.row, v);
      if (res != InstallResult::kOk) {
        FreeVersion(v);  // never linked, so no epoch wait
        return Status::Aborted(res == InstallResult::kWriteConflict
                                   ? "write-write conflict"
                                   : "read-timestamp conflict");
      }
      s_.installed.emplace_back(&w, v);
      // Cicada's install-then-validate order: re-check the predecessor's
      // read timestamp AFTER our pending version is linked. A reader
      // publishes its read timestamp before it validates, so exactly one of
      // us observes the other (checking only before the CAS would let a
      // racing reader and writer both commit inconsistently).
      const Version* below = v->Next();
      while (below != nullptr && below->Status() == VersionStatus::kAborted) {
        below = below->Next();
      }
      if (below != nullptr &&
          below->read_ts.load(std::memory_order_acquire) > ts_) {
        return Status::Aborted("read-timestamp conflict (post-install)");
      }
    }

    // (3) Validate reads: the version observed must still be the newest
    // committed one strictly below our timestamp (our own pendings have
    // write_ts == ts_ and are skipped by construction). Read-only
    // transactions validate too: ObserveRead() and a concurrent writer's
    // read-timestamp check can race (the writer may install-and-commit
    // between our version lookup and our read-timestamp publication).
    for (const ReadEntry& r : s_.reads) {
      if (NewestCommittedBelow(db_.table(r.table), r.row, ts_) != r.observed) {
        return Status::Aborted("read validation failed");
      }
    }

    // (4) Log after validation, before visibility, in install order.
    writes_.LogCommit(engine_->collector_, ts_);

    // (5) Make the writes visible.
    for (const auto& [w, v] : s_.installed) {
      v->SetStatus(VersionStatus::kCommitted);
    }
    return Status::Ok();
  }

  void Rollback() {
    for (const auto& [w, v] : s_.installed) {
      db_.table(w->table).AbortPending(w->row, v, db_.epochs());
    }
  }

 private:
  MvtsoEngine* engine_;
  ActiveTxnTracker::Scope scope_;
  const Timestamp ts_;
  MvtsoScratch& s_;
};

Status MvtsoEngine::Execute(const TxnFn& fn) { return Run<MvtsoTxn>(fn, this); }

}  // namespace c5::txn
