// C5-Cicada backup: scheduler / workers / snapshotter pipeline (§7.2).
//
// Invariants the pipeline maintains, on which every reader of the backup
// relies:
//  * Per-row order: a write executes only after the previous write to its
//    row (identified by prev_ts) is installed, so each row's version chain
//    is always a prefix of the primary's history for that row.
//  * Transaction-boundary snapshots: each worker's published c' stays below
//    any transaction it has partially applied, so the snapshot
//    c = min(watermark, min c') never exposes a torn transaction.
//  * Monotonicity: watermark, c', and the visible snapshot only advance —
//    read-only transactions observe monotonic prefix consistency.
//  * Non-blocking reads: the snapshotter advances c without stopping
//    workers; versions are guarded by storage epochs, never locks.

#ifndef C5_CORE_C5_REPLICA_H_
#define C5_CORE_C5_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "common/spsc_queue.h"
#include "replica/replica.h"

namespace c5::core {

// C5-Cicada (§7.2): the faithful implementation of the paper's design.
//
// Scheduler (single thread): embeds the per-row FIFO queues in the log by
// setting each record's prev_timestamp to the timestamp of the preceding
// write to the same row ("dynamically allocating and managing these queues
// prevented the single-threaded scheduler from keeping up with Cicada"),
// then PARTITIONS each segment's records by scheduler key (a hash of the
// row's name) into one batch per worker. Row affinity is the load-balancing
// AND ordering story: every write of a row lands on the same worker in log
// order, so a worker never waits on a predecessor owned by a peer.
//
// Workers: apply their batch's records in order; a write is safe to execute
// iff the newest version of its row carries exactly prev_timestamp (with row
// affinity that always holds; a miss would be waited out in place, under
// the batch's c'). Visibility is EPOCH-BATCHED: a
// worker publishes c' = (smallest timestamp it might still execute) - 1
// once per batch — a local epoch bump — instead of once per record. The
// published c' can only lag the true per-worker floor, never exceed it, so
// the snapshot the aggregator derives stays a valid prefix point.
//
// Snapshotter (the aggregator): periodically advances the current snapshot
// c to min(watermark, min over workers of c'). Because every write of a
// transaction carries the transaction's commit timestamp and a worker's c'
// stays below any batch it has not finished, c always lands on a
// transaction boundary — monotonic prefix consistency without ever blocking
// workers (§4.2's current/next/future snapshots realized through version
// timestamps).
class C5Replica : public replica::ReplicaBase {
 public:
  C5Replica(storage::Database* db, const replica::ProtocolOptions& options);
  ~C5Replica() override { Stop(); }

  std::string name() const override { return "c5"; }

 private:
  // One worker's slice of one segment: pointers into the segment's record
  // array, in log order (row affinity means they are also in per-row order).
  // Pooled and recycled through the free list below, so steady-state
  // scheduling allocates nothing.
  struct Batch {
    std::vector<const log::LogRecord*> recs;  // capacity survives reuse
    // min commit_ts across recs, minus 1: the worker's c' while the batch
    // is in flight. Everything at or above floor+1 is unexecuted by this
    // worker until the batch completes.
    Timestamp floor = 0;
  };

  struct WorkerState {
    explicit WorkerState(std::size_t queue_capacity)
        : queue(queue_capacity) {}
    SpscQueue<Batch*> queue;
    // c' (§7.2): one writer (the worker), one reader (the snapshotter).
    // Bumped once per batch (the "local epoch"), not per record.
    alignas(64) std::atomic<Timestamp> c_prime{0};
  };

  // prev_ts stamping and row-affinity partitioning (scheduler thread).
  void Schedule(log::LogSegment& seg) override;
  void WorkerLoop(int idx) override;
  void CloseQueues() override;

  // n = min(watermark, min over workers of c'): everything at or below it
  // is applied, and no worker holds or can still be handed a record at or
  // below it. The snapshotter publishes it; the scheduler releases the
  // segments it covers (ReplicaBase::NextSegment).
  Timestamp ApplyFloor() override;

  Batch* AcquireBatch();
  void ReleaseBatch(Batch* batch);

  std::vector<std::unique_ptr<WorkerState>> workers_;

  // Scheduler-thread state. Row name -> timestamp of the last write seen
  // for it: the entire §7.2 scheduler state, since the per-row FIFOs are
  // embedded in the log via prev_timestamp. A pre-sized flat map keeps the
  // single scheduler thread off the allocator and out of node-based
  // pointer chasing — one cache line per record in the common case.
  FlatMap<Timestamp> last_write_ts_;
  // The segment being scheduled: one batch per worker, or nullptr.
  std::vector<Batch*> out_;

  // Batch pool: the scheduler acquires, workers release. Locked once per
  // batch on each side; batch_storage_ owns every batch ever created.
  SpinLock pool_lock_{LockRank::kReplicaState};
  std::vector<std::unique_ptr<Batch>> batch_storage_ C5_GUARDED_BY(pool_lock_);
  std::vector<Batch*> batch_free_ C5_GUARDED_BY(pool_lock_);
};

}  // namespace c5::core

#endif  // C5_CORE_C5_REPLICA_H_
