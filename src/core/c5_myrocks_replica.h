#ifndef C5_CORE_C5_MYROCKS_REPLICA_H_
#define C5_CORE_C5_MYROCKS_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/mpmc_queue.h"
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
//
// Both ride on the shared mechanisms of the other out-of-order protocols.
// The scheduler numbers each transaction in log order and hands a segment's
// worth to the workers through one MpmcQueue::PushAll. A worker retires its
// window front once the transaction's last write lands and marks it in a
// PrefixTracker over transaction indexes, as KuaFu does; the last
// transaction of the contiguous marked prefix is the boundary n
// (ReplicaBase::ApplyFloor).
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
  // A transaction ready for execution: contiguous records within a segment,
  // numbered in log order (the PrefixTracker's index).
  struct TxnUnit {
    const log::LogRecord* first;
    std::size_t count;
    Timestamp commit_ts;
    std::uint64_t index;
  };

  // prev_ts stamping and transaction dispatch (scheduler thread).
  void Schedule(log::LogSegment& seg) override;
  void WorkerLoop(int idx) override;
  void CloseQueues() override { dispatch_.Close(); }

  // §5.2: blocks writers above `n` while the (simulated) RocksDB snapshot is
  // taken, so the boundary stays stable while it captures current state.
  void PublishSnapshot(Timestamp n) override;

  // Whole transactions in commit order; a segment's worth per PushAll.
  MpmcQueue<TxnUnit> dispatch_;
  // Scheduler-thread state: the same embedded-FIFO preprocessing as
  // C5Replica (§5.1 leverages the existing row-based log; the per-row
  // ordering metadata is identical), through the same pre-sized flat map,
  // one segment's transactions, reused across segments, and the next
  // transaction's index.
  FlatMap<Timestamp> last_write_ts_;
  std::vector<TxnUnit> batch_;
  std::uint64_t txn_index_ = 0;
  // Snapshot barrier (§5.2): while active, workers must not install writes
  // with timestamps greater than barrier_ts_. kMaxTimestamp = inactive.
  alignas(64) std::atomic<Timestamp> barrier_ts_{kMaxTimestamp};
};

}  // namespace c5::core

#endif  // C5_CORE_C5_MYROCKS_REPLICA_H_
