#ifndef C5_CORE_C5_MYROCKS_REPLICA_H_
#define C5_CORE_C5_MYROCKS_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "replica/replica.h"

namespace c5::core {

// C5-MyRocks (§5): the backward-compatible variant deployed at Meta. Same
// row-granularity safety rule as C5Replica (a write executes only when the
// previous write to its row is in place), plus the two constraints backward
// compatibility imposed:
//
//  1. One-thread-per-transaction execution (§5.1): MyRocks's row-based
//     logging assumes all of a transaction's writes are executed by the same
//     worker. Workers pick up whole transactions in commit order; a write
//     executes once it is safe ("the worker first waits until the write
//     reaches the head of its per-row queue ... then executes it"). Rather
//     than stalling the thread on each unsafe write, a worker defers it and
//     keeps a WINDOW of open transactions (popping newer ones while older
//     ones wait on their deferred writes), completing each transaction —
//     for visibility purposes — only when its last write lands. Waiting
//     in-place instead serializes the log on contended-row-last record
//     orderings: TPC-C's write-optimized Payment puts the hot warehouse
//     write last, which made every transaction's stall cover its
//     predecessor's ENTIRE body (see docs/PERFORMANCE.md).
//  2. A blocking two-snapshot snapshotter (§5.2): RocksDB snapshots can only
//     capture the current state, so taking one requires briefly blocking
//     writes with timestamps above the chosen boundary n. The snapshot
//     frequency I is tunable; taking a snapshot can be given a simulated
//     cost to reproduce the lag spikes the paper discusses.
class C5MyRocksReplica : public replica::ReplicaBase {
 public:
  // ProtocolOptions::snapshot_interval is the snapshot frequency I (the
  // paper's Fig. 8 uses 10 ms) and snapshot_cost the simulated snapshot
  // cost.
  C5MyRocksReplica(storage::Database* db,
                   const replica::ProtocolOptions& options);
  ~C5MyRocksReplica() override { Stop(); }

  std::string name() const override { return "c5-myrocks"; }

 private:
  // A transaction ready for execution: contiguous records within a segment.
  struct TxnUnit {
    const log::LogRecord* first;
    std::size_t count;
    Timestamp commit_ts;
  };

  // Commit-ordered dispatch queue that atomically tracks the minimum
  // timestamp that is dispatched-or-in-flight, so the snapshotter can pick a
  // provably applied boundary n. All transitions happen under one mutex:
  // there is no window in which a transaction is neither in the queue nor in
  // a worker's in-flight slot.
  class TxnDispatchQueue {
   public:
    explicit TxnDispatchQueue(int num_workers)
        : inflight_(num_workers, kMaxTimestamp) {}

    // Enqueues a whole segment's transactions under ONE mutex acquisition
    // and at most one wakeup. The scheduler dispatches per segment; pushing
    // per transaction costs a futex notify per commit at live-primary rates
    // (hundreds of thousands of syscalls/s), which on an oversubscribed
    // host comes straight out of the primary's CPU budget.
    void PushBatch(const TxnUnit* txns, std::size_t count);
    // Blocks; returns nullopt when closed and drained. The popped
    // transaction only LOWERS the worker's floor (min), under the pop mutex,
    // so MinUnapplied never misses a transaction in transit; a worker
    // raises its floor itself, through SetFloor, once its work completes.
    std::optional<TxnUnit> Pop(int worker);
    // Non-blocking Pop for a worker that still has open transactions (its
    // floor stays put — popped transactions are newer than anything open).
    std::optional<TxnUnit> TryPop(int worker);
    // Publishes `worker`'s in-flight floor: the commit timestamp of its
    // oldest incomplete transaction, or kMaxTimestamp when none remain.
    void SetFloor(int worker, Timestamp ts);
    void Close();

    // Smallest timestamp not yet fully applied (kMaxTimestamp if none
    // outstanding). Everything strictly below is applied.
    Timestamp MinUnapplied() const;

   private:
    mutable Mutex mu_{LockRank::kQueue};
    CondVar cv_;
    std::deque<TxnUnit> queue_ C5_GUARDED_BY(mu_);
    std::vector<Timestamp> inflight_ C5_GUARDED_BY(mu_);
    bool closed_ C5_GUARDED_BY(mu_) = false;
    int waiters_ C5_GUARDED_BY(mu_) = 0;
    alignas(64) std::atomic<std::size_t> size_hint_{0};
  };

  // prev_ts stamping and transaction dispatch (scheduler thread).
  void Schedule(log::LogSegment& seg) override;
  void WorkerLoop(int idx) override;
  void CloseQueues() override { dispatch_.Close(); }

  // The snapshot boundary n: MinUnapplied() - 1, or the watermark when
  // nothing is unapplied. Everything at or below it is applied and no
  // worker holds a record at or below it; the scheduler releases the
  // segments it covers (ReplicaBase::NextSegment).
  Timestamp ApplyFloor() override;

  // §5.2: blocks writers above `n` while the (simulated) RocksDB snapshot is
  // taken, so the boundary stays stable while it captures current state.
  void PublishSnapshot(Timestamp n) override;

  TxnDispatchQueue dispatch_;
  // Scheduler-thread state: the same embedded-FIFO preprocessing as
  // C5Replica (§5.1 leverages the existing row-based log; the per-row
  // ordering metadata is identical), through the same pre-sized flat map,
  // and one segment's transactions, reused across segments.
  FlatMap<Timestamp> last_write_ts_;
  std::vector<TxnUnit> batch_;
  // Snapshot barrier (§5.2): while active, workers must not install writes
  // with timestamps greater than barrier_ts_. kMaxTimestamp = inactive.
  alignas(64) std::atomic<Timestamp> barrier_ts_{kMaxTimestamp};
};

}  // namespace c5::core

#endif  // C5_CORE_C5_MYROCKS_REPLICA_H_
