#include "txn/two_phase_locking_engine.h"

#include <vector>

#include "storage/table.h"
#include "storage/version.h"

namespace c5::txn {

using storage::Version;

namespace {

struct HeldLock {
  TableId table;
  RowId row;
};

// 2PL's per-thread scratch: the shared write set plus the row locks held,
// recycled across transactions.
struct TplScratch {
  WriteSet writes;
  std::vector<HeldLock> held;

  void Clear() {
    writes.Clear();
    held.clear();
  }
};

}  // namespace

class TwoPhaseLockingEngine::TplTxn : public BufferedTxn<TplTxn> {
 public:
  using Scratch = TplScratch;

  TplTxn(TplScratch& scratch, TwoPhaseLockingEngine* engine)
      : BufferedTxn(*engine->db_, scratch.writes),
        engine_(engine),
        id_(engine->next_txn_id_.fetch_add(1, std::memory_order_relaxed)),
        deadline_(std::chrono::steady_clock::now() +
                  engine->options_.lock_wait_timeout),
        s_(scratch) {}

  Timestamp timestamp() const override { return kInvalidTimestamp; }

  // BufferedTxn hooks. A write takes the row's exclusive lock, held until
  // commit; reads see the newest committed version (read committed, §6).
  Status Claim(TableId table, RowId row) {
    for (const HeldLock& h : s_.held) {
      if (h.table == table && h.row == row) return Status::Ok();
    }
    if (!engine_->locks_.Acquire(id_, table, row, deadline_)) {
      return Status::TimedOut("lock wait");
    }
    s_.held.push_back(HeldLock{table, row});
    return Status::Ok();
  }

  Timestamp ReadPoint() const { return kMaxTimestamp; }

  // ReadForUpdate, Update and Delete take the row's lock (Claim) before
  // this read, so what it sees is stable until commit.
  const Version* ReadVisible(TableId table, RowId row) {
    return db_.table(table).ReadLatestCommitted(row);
  }

  // Draws the LSN while holding all locks, so conflicting transactions are
  // LSN-ordered by their lock-acquisition order; logs in first-write order,
  // installs committed versions, then releases.
  Status Commit() {
    if (!writes_.empty()) {
      // Register in the commit tracker BEFORE drawing the LSN so the online
      // log sequencer's release horizon never passes an unlogged commit.
      ActiveTxnTracker::Scope commit_scope(&engine_->commit_tracker_);
      const Timestamp lsn = engine_->clock_->Next();
      commit_scope.Set(lsn);
      writes_.LogCommit(engine_->collector_, lsn);
      for (const BufferedWrite& w : writes_.writes()) {
        // The value is viewed, not moved: the single copy happens inside
        // InstallCommitted, into the arena block.
        db_.table(w.table).InstallCommitted(w.row, lsn, w.value,
                                            w.op == OpType::kDelete);
      }
    }
    ReleaseAll();
    return Status::Ok();
  }

  void Rollback() { ReleaseAll(); }

 private:
  void ReleaseAll() {
    for (const HeldLock& h : s_.held) {
      engine_->locks_.Release(id_, h.table, h.row);
    }
    s_.held.clear();
  }

  TwoPhaseLockingEngine* engine_;
  const LockManager::TxnId id_;
  const std::chrono::steady_clock::time_point deadline_;
  TplScratch& s_;
};

TwoPhaseLockingEngine::TwoPhaseLockingEngine(storage::Database* db,
                                             log::LogCollector* collector,
                                             TxnClock* clock, Options options)
    : EngineBase(db, collector, clock), options_(options) {}

Status TwoPhaseLockingEngine::Execute(const TxnFn& fn) {
  return Run<TplTxn>(fn, this);
}

}  // namespace c5::txn
