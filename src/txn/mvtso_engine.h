// MVTSO primary engine (Cicada-like, §7.1).
//
// Invariants the replication pipeline depends on:
//  * Commit timestamps are unique and totally ordered; every write of a
//    transaction carries the transaction's commit timestamp, so commit_ts
//    doubles as the transaction id in the shipped log.
//  * A transaction's records reach the log collector only after read-set
//    validation succeeds and before its versions become visible, so the log
//    never contains an aborted transaction and visibility never precedes
//    durability-in-log.
//  * LogHorizon() is a lower bound on every future commit timestamp:
//    transactions register with the active-transaction tracker before
//    drawing their timestamp and deregister only after logging, so the
//    online log sequencer can release records at or below the horizon.

#ifndef C5_TXN_MVTSO_ENGINE_H_
#define C5_TXN_MVTSO_ENGINE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "log/log_collector.h"
#include "storage/database.h"
#include "txn/active_txn_tracker.h"
#include "txn/engine_base.h"

namespace c5::txn {

// Multi-version timestamp-ordering engine modeled on Cicada (§7.1 of the
// paper): each transaction draws a unique timestamp, writes create pending
// versions installed at the head of per-row version chains, reads record the
// observed version and advance its read timestamp, and validation re-checks
// the read set before flipping pending versions to committed.
//
// Deviations from Cicada, chosen for clarity and noted in DESIGN.md:
//  * Timestamps come from one shared counter instead of loosely synchronized
//    per-thread clocks.
//  * Pending versions install only at the chain head (first-updater-wins on
//    timestamp inversion), instead of sorted mid-chain insertion. This can
//    only increase the abort rate under contention.
//
// Commit protocol (order matters for the replication invariants):
//  1. Sort the write set (already one write per row) by row.
//  2. Install pending versions with conflict checks; abort on conflict.
//  3. Validate the read set (each observed version is still the newest
//     committed one below our timestamp).
//  4. LogCommit(records) — after validation, before visibility (§7.1).
//  5. Flip pending versions to committed.
class MvtsoEngine : public EngineBase {
 public:
  MvtsoEngine(storage::Database* db, log::LogCollector* collector,
              TxnClock* clock)
      : EngineBase(db, collector, clock) {}

  Status Execute(const TxnFn& fn) override;
  std::string name() const override { return "mvtso"; }

  // No in-flight transaction can commit with a timestamp below this:
  // transactions register before drawing their timestamp and deregister
  // after logging.
  Timestamp LogHorizon() const override { return active_.MinActive(); }

  // One below the oldest timestamp any in-flight transaction could read at.
  // The clock is read BEFORE the tracker scan (both seq_cst): a transaction
  // the scan misses registered after it, so it draws a timestamp above the
  // clock value read here. Read the other way round, a transaction that
  // registers between the two reads could hold a timestamp below the
  // horizon.
  Timestamp GcHorizon() const override {
    const Timestamp latest = clock_->Latest();
    const Timestamp bound = std::min(latest, active_.MinActive());
    return bound == 0 ? 0 : bound - 1;
  }

 private:
  class MvtsoTxn;

  ActiveTxnTracker active_;
};

}  // namespace c5::txn

#endif  // C5_TXN_MVTSO_ENGINE_H_
