// C5-Cicada backup: scheduler / workers / snapshotter pipeline (§7.2).
//
// Invariants the pipeline maintains, on which every reader of the backup
// relies:
//  * Per-row order: a write executes only after the previous write to its
//    row (identified by prev_ts) is installed, so each row's version chain
//    is always a prefix of the primary's history for that row.
//  * Transaction-boundary snapshots: the snapshot is the end of the last
//    segment whose batches, and every earlier one's, are all applied, so it
//    never exposes a torn transaction (transactions never span segments).
//  * Monotonicity: the batch prefix and the visible snapshot only advance —
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

#include "common/event_count.h"
#include "common/flat_map.h"
#include "common/mpmc_queue.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
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
// order, so a worker never waits on a predecessor owned by a peer. Each
// non-empty batch gets the next index in push order, and the segment's last
// batch carries the segment's max timestamp.
//
// Workers: each pops its own queue (MpmcQueue, which parks an idle worker)
// and applies the batch's records in order; a write is safe to execute iff
// the newest version of its row carries exactly prev_timestamp (with row
// affinity that always holds; a miss would be waited out in place). Then it
// marks the batch: ONE visibility publication per batch, not per record.
//
// Snapshotter (the aggregator): periodically advances the current snapshot
// c to the end of the batch prefix (ReplicaBase::ApplyFloor) in place of
// §7.2's "minimum across all c'". That is coarser: c moves only at segment
// ends, where min c' could stop inside a segment. Segments end on
// transaction boundaries, so c always lands on one — monotonic prefix
// consistency without ever blocking workers (§4.2's current/next/future
// snapshots realized through version timestamps).
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
    std::uint64_t index = 0;  // the prefix tracker's index, in push order
    Timestamp end_ts = kInvalidTimestamp;  // on a segment's last batch: its max
  };

  // prev_ts stamping and row-affinity partitioning (scheduler thread).
  void Schedule(log::LogSegment& seg) override;
  void WorkerLoop(int idx) override;
  void CloseQueues() override;

  Batch* AcquireBatch();
  void ReleaseBatch(Batch* batch);

  // One queue per worker: row affinity pins each batch to its worker.
  std::vector<std::unique_ptr<MpmcQueue<Batch*>>> queues_;

  // Scheduler-thread state. Row name -> timestamp of the last write seen
  // for it: the entire §7.2 scheduler state, since the per-row FIFOs are
  // embedded in the log via prev_timestamp. A pre-sized flat map keeps the
  // single scheduler thread off the allocator and out of node-based
  // pointer chasing — one cache line per record in the common case.
  FlatMap<Timestamp> last_write_ts_;
  // The segment being scheduled: one batch per worker, or nullptr.
  std::vector<Batch*> out_;
  std::uint64_t batch_index_ = 0;  // the next batch's index

  // Batch pool: the scheduler acquires, workers release. Locked once per
  // batch on each side; batch_storage_ owns every batch ever created. At
  // most kMaxBatchesPerWorker per worker are out at once, which bounds the
  // scheduler's run-ahead and the pool below the prefix tracker's capacity
  // (64k to 1M batches): Schedule waits on batch_back_, which every release
  // notifies.
  static constexpr std::size_t kMaxBatchesPerWorker = 4096;
  std::atomic<std::size_t> batches_out_{0};
  EventCount batch_back_;
  SpinLock pool_lock_{LockRank::kReplicaState};
  std::vector<std::unique_ptr<Batch>> batch_storage_ C5_GUARDED_BY(pool_lock_);
  std::vector<Batch*> batch_free_ C5_GUARDED_BY(pool_lock_);
};

}  // namespace c5::core

#endif  // C5_CORE_C5_REPLICA_H_
