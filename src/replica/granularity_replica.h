#ifndef C5_REPLICA_GRANULARITY_REPLICA_H_
#define C5_REPLICA_GRANULARITY_REPLICA_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mpmc_queue.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "replica/replica.h"

namespace c5::replica {

// Execution granularity of the keyed-FIFO scheduler. Row granularity is the
// paper's §4.1 design (this replica IS the design-faithful C5 variant, with
// explicit per-row queues and a scheduler queue exactly as in Fig. 4); page
// and table granularity reproduce the baseline protocols of §3.1.1 and the
// Meta table-granularity protocol of Fig. 12 by simply coarsening the key.
enum class Granularity {
  kRow = 0,
  kPage = 1,   // kRowsPerPage rows share one serialization key (§3.1.1)
  kTable = 2,  // all writes to a table serialize (Fig. 12 baseline)
};

const char* ToString(Granularity g);

// Generic keyed-FIFO cloned concurrency control (§4.1):
//
//   "the scheduler logically constructs a FIFO queue for each row whose
//    order reflects the order of the row's writes in the log. ... a worker
//    chooses the next write for execution by first removing the per-row
//    queue at the head of the scheduler queue and then executing the write
//    at its head. When the worker finishes executing the write, the per-row
//    queue is reinserted into the scheduler queue."
//
// A write becomes eligible when it reaches the head of its key queue; the
// scheduler queue holds key queues with an eligible head. Coarsening the key
// (page, table) yields the less-parallel baselines; with the row key the
// execution constraints are exactly the row-granularity protocol proven
// minimal in Theorem 2.
//
// Visibility: writes complete out of transaction order; each worker marks
// its writes' sequence numbers in the shared prefix tracker, whose prefix
// gives the transaction-aligned snapshot (ReplicaBase::ApplyFloor).
class GranularityReplica : public ReplicaBase {
 public:
  GranularityReplica(storage::Database* db, Granularity granularity,
                     const ProtocolOptions& options);
  ~GranularityReplica() override { Stop(); }

  std::string name() const override;

 private:
  // §3.1.1's page-capacity assumption.
  static constexpr std::uint64_t kRowsPerPage = 64;

  struct WriteRef {
    const log::LogRecord* rec;
    std::uint64_t seq;
  };

  // One per serialization key. The spinlock guards the deque and the
  // in-scheduler-queue flag; writes are executed outside the lock.
  struct KeyQueue {
    SpinLock mu{LockRank::kReplicaState};
    std::deque<WriteRef> writes C5_GUARDED_BY(mu);
    bool in_sched_queue C5_GUARDED_BY(mu) = false;
  };

  std::uint64_t KeyFor(const log::LogRecord& rec) const;

  // Appends each write to its key queue and hands newly eligible key
  // queues to the workers; each write is outstanding work
  // (ReplicaBase::AddWork) until a worker applies it.
  void Schedule(log::LogSegment& seg) override;
  void WorkerLoop(int idx) override;
  void CloseQueues() override { sched_queue_.Close(); }

  // Hands the pending handoff batch to the scheduler queue.
  void PushHandoff();

  // Handoff batching: the logical scheduler queue hands off one eligible
  // key queue per entry (§4.1), but moving them one at a time through a
  // shared queue costs a futex round-trip per WRITE. Batching the handoffs
  // (and letting a worker run a bounded number of consecutive writes from
  // the same key queue) preserves per-key FIFO order exactly while
  // amortizing the queue cost.
  static constexpr std::size_t kHandoffBatch = 512;
  static constexpr int kMaxRunPerHandoff = 64;

  const Granularity granularity_;

  // Key -> queue. Created only by the scheduler; workers reach queues via
  // pointers in the scheduler queue, so the map itself is scheduler-private.
  std::unordered_map<std::uint64_t, std::unique_ptr<KeyQueue>> queues_;

  MpmcQueue<std::vector<KeyQueue*>> sched_queue_;

  // Scheduler-thread state: the next write's sequence number (the
  // PrefixTracker's index) and the key queues not yet handed off.
  std::uint64_t seq_ = 0;
  std::vector<KeyQueue*> handoff_;
};

}  // namespace c5::replica

#endif  // C5_REPLICA_GRANULARITY_REPLICA_H_
