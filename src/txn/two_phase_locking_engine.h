#ifndef C5_TXN_TWO_PHASE_LOCKING_ENGINE_H_
#define C5_TXN_TWO_PHASE_LOCKING_ENGINE_H_

#include <atomic>
#include <chrono>
#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "log/log_collector.h"
#include "storage/database.h"
#include "txn/active_txn_tracker.h"
#include "txn/engine_base.h"
#include "txn/lock_manager.h"

namespace c5::txn {

// Two-phase-locking engine modeling a MyRocks-style primary (§5, §6):
//
//  * Writes acquire exclusive row locks in operation order, with FIFO grants
//    (the paper's §3.1 model). Locks are held until commit (strict 2PL).
//  * Reads run at read committed — they observe the newest committed version
//    without locking, matching the paper's evaluation setup ("to stress the
//    backup, the primary used read committed isolation", §6).
//  * The commit LSN is drawn while all locks are held, so conflicting
//    transactions receive LSNs in conflict order; versions are installed with
//    the LSN as their write timestamp; the log is ordered by LSN.
//  * Deadlocks are broken by lock-wait timeouts: the transaction aborts with
//    kTimedOut and the caller retries (InnoDB-style).
class TwoPhaseLockingEngine : public EngineBase {
 public:
  struct Options {
    std::chrono::microseconds lock_wait_timeout =
        std::chrono::microseconds(2000);
  };

  TwoPhaseLockingEngine(storage::Database* db, log::LogCollector* collector,
                        TxnClock* clock)
      : TwoPhaseLockingEngine(db, collector, clock, Options()) {}
  TwoPhaseLockingEngine(storage::Database* db, log::LogCollector* collector,
                        TxnClock* clock, Options options);

  Status Execute(const TxnFn& fn) override;
  std::string name() const override { return "2pl"; }

  LockManager& locks() { return locks_; }

  // Committing transactions register before drawing their LSN and
  // deregister after logging, so no future log entry can carry an LSN below
  // this.
  Timestamp LogHorizon() const override { return commit_tracker_.MinActive(); }

  // 2PL transactions read at "latest committed" and hold an epoch guard
  // while touching version memory, so the horizon may trail the commit
  // clock directly (truncation always preserves the newest committed
  // version at or below the horizon).
  Timestamp GcHorizon() const override {
    const Timestamp latest = clock_->Latest();
    return latest == 0 ? 0 : latest - 1;
  }

 private:
  class TplTxn;

  LockManager locks_;
  Options options_;
  ActiveTxnTracker commit_tracker_;
  std::atomic<LockManager::TxnId> next_txn_id_{1};
};

}  // namespace c5::txn

#endif  // C5_TXN_TWO_PHASE_LOCKING_ENGINE_H_
