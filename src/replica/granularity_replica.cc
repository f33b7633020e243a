#include "replica/granularity_replica.h"

namespace c5::replica {

const char* ToString(Granularity g) {
  switch (g) {
    case Granularity::kRow:
      return "row";
    case Granularity::kPage:
      return "page";
    case Granularity::kTable:
      return "table";
  }
  return "unknown";
}

GranularityReplica::GranularityReplica(storage::Database* db,
                                       Granularity granularity,
                                       const ProtocolOptions& options)
    : ReplicaBase(db, options), granularity_(granularity) {}

std::string GranularityReplica::name() const {
  switch (granularity_) {
    case Granularity::kRow:
      return "c5-queue(row)";
    case Granularity::kPage:
      return "page-granularity";
    case Granularity::kTable:
      return "table-granularity";
  }
  return "granularity";
}

std::uint64_t GranularityReplica::KeyFor(const log::LogRecord& rec) const {
  switch (granularity_) {
    case Granularity::kRow:
      return RowName(rec.table, rec.row);
    case Granularity::kPage:
      return RowName(rec.table, rec.row / kRowsPerPage);
    case Granularity::kTable:
      return RowName(rec.table, 0);
  }
  return RowName(rec.table, rec.row);
}

void GranularityReplica::Schedule(log::LogSegment& seg) {
  AddWork(seg.size());
  const auto& recs = seg.records();
  for (std::size_t i = 0; i < recs.size();) {
    if (!prefix_.HasRoom(seq_ + 1)) {
      if (!handoff_.empty()) PushHandoff();
      if (!AwaitPrefixRoom(seq_ + 1)) return;
    }
    // A run of writes to one key goes in under one lock, so table
    // granularity's one key queue does not bounce its lock between the
    // scheduler and the worker on every write.
    const std::uint64_t key = KeyFor(recs[i]);
    std::size_t end = i + 1;
    while (end < recs.size() && KeyFor(recs[end]) == key &&
           prefix_.HasRoom(seq_ + (end - i) + 1)) {
      ++end;
    }
    auto& slot = queues_[key];
    if (slot == nullptr) slot = std::make_unique<KeyQueue>();
    KeyQueue* kq = slot.get();
    bool enqueue_kq = false;
    {
      SpinLockGuard lock(kq->mu);
      for (; i < end; ++i) kq->writes.push_back(WriteRef{&recs[i], seq_++});
      // If the queue is not (and will not become) visible to workers, its
      // new head is eligible: hand the queue to the scheduler queue.
      if (!kq->in_sched_queue) {
        kq->in_sched_queue = true;
        enqueue_kq = true;
      }
    }
    if (enqueue_kq) {
      handoff_.push_back(kq);
      if (handoff_.size() >= kHandoffBatch) PushHandoff();
    }
  }
  if (!handoff_.empty()) PushHandoff();
}

void GranularityReplica::PushHandoff() {
  sched_queue_.Push(std::move(handoff_));
  handoff_.clear();
  handoff_.reserve(kHandoffBatch);
}

void GranularityReplica::WorkerLoop(int idx) {
  ApplyTally tally(this, idx);
  std::vector<KeyQueue*> reinserts;
  while (auto batch_opt = sched_queue_.Pop()) {
    // One unit per batch, never across the blocking Pop.
    const ApplyTally::Unit unit(tally);
    reinserts.clear();
    std::uint64_t applied = 0;
    for (KeyQueue* kq : *batch_opt) {
      // Run a bounded number of consecutive writes from this key queue
      // (per-key FIFO order is preserved; see kMaxRunPerHandoff).
      int run = 0;
      bool reinsert = false;
      while (true) {
        WriteRef ref;
        {
          SpinLockGuard lock(kq->mu);
          ref = kq->writes.front();
        }
        ApplyRecord(*ref.rec, tally);
        prefix_.Mark(ref.seq, ref.rec->last_in_txn ? ref.rec->commit_ts
                                                   : kInvalidTimestamp);
        ++applied;
        bool more = false;
        {
          SpinLockGuard lock(kq->mu);
          kq->writes.pop_front();
          more = !kq->writes.empty();
          if (!more) kq->in_sched_queue = false;
        }
        if (!more) break;
        if (++run >= kMaxRunPerHandoff) {
          reinsert = true;
          break;
        }
      }
      if (reinsert) reinserts.push_back(kq);
    }
    if (!reinserts.empty()) {
      sched_queue_.Push(std::vector<KeyQueue*>(reinserts));
    }
    FinishWork(applied);
  }
}

}  // namespace c5::replica
