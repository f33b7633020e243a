#include "core/c5_replica.h"

namespace c5::core {

C5Replica::C5Replica(storage::Database* db,
                     const replica::ProtocolOptions& options)
    : ReplicaBase(db, options),
      last_write_ts_(options.scheduler_map_capacity),
      out_(options.num_workers, nullptr) {
  for (int i = 0; i < options_.num_workers; ++i) {
    queues_.push_back(std::make_unique<MpmcQueue<Batch*>>());
  }
}

C5Replica::Batch* C5Replica::AcquireBatch() {
  batches_out_.fetch_add(1, std::memory_order_relaxed);
  const SpinLockGuard lock(pool_lock_);
  if (batch_free_.empty()) {  // warm-up: steady state recycles
    batch_storage_.push_back(std::make_unique<Batch>());
    return batch_storage_.back().get();
  }
  Batch* b = batch_free_.back();
  batch_free_.pop_back();
  return b;
}

void C5Replica::ReleaseBatch(Batch* batch) {
  batch->recs.clear();  // keeps capacity — the point of pooling
  {
    const SpinLockGuard lock(pool_lock_);
    batch_free_.push_back(batch);
  }
  batches_out_.fetch_sub(1, std::memory_order_release);
  batch_back_.Notify();
}

void C5Replica::Schedule(log::LogSegment& seg) {
  const std::size_t nw = queues_.size();
  // The run-ahead bound: a worker hands a batch back once it is applied.
  // A wait here holds more than nw batches out, so a release (the workers
  // drain what is out, Stop() or not) ends it.
  batch_back_.Await([&] {
    return batches_out_.load(std::memory_order_acquire) + nw <=
               kMaxBatchesPerWorker * nw ||
           stopping();
  });
  if (stopping()) return;
  for (log::LogRecord& rec : seg.records()) {
    const std::uint64_t name = StampPrevTs(last_write_ts_, rec);

    // Partition by scheduler key: Fibonacci-mix the row name so dense row
    // ids spread evenly, then reduce mod N. Row affinity is both the
    // load-balancing and the ordering argument — every write of a row
    // lands on the same worker in log order, so predecessors are always
    // installed by the time the successor is attempted (redeliveries are
    // stale and resolve as kAlreadyApplied). Record pointers stay in log
    // order within a batch; the segment's own record array is never
    // reordered (prev_ts chains stay inspectable in log order).
    const std::size_t widx =
        static_cast<std::size_t>((name * 0x9E3779B97F4A7C15ull) >> 32) % nw;
    Batch*& b = out_[widx];
    if (b == nullptr) b = AcquireBatch();
    b->recs.push_back(&rec);
  }
  seg.MarkPreprocessed();
  // Number the batches in push order. A segment ends on a transaction
  // boundary, so its last batch carries the segment's max timestamp: the
  // prefix passes it once every batch of this and every earlier segment is
  // applied.
  if (!AwaitPrefixRoom(batch_index_ + nw)) return;
  std::size_t last = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    if (out_[i] != nullptr) last = i;
  }
  for (std::size_t i = 0; i <= last; ++i) {
    Batch* b = out_[i];
    if (b == nullptr) continue;
    b->index = batch_index_++;
    b->end_ts = i == last ? seg.MaxTimestamp() : kInvalidTimestamp;
    queues_[i]->Push(b);
  }
  out_.assign(nw, nullptr);
}

void C5Replica::CloseQueues() {
  for (auto& q : queues_) q->Close();
}

void C5Replica::WorkerLoop(int idx) {
  MpmcQueue<Batch*>& queue = *queues_[idx];
  ApplyTally tally(this, idx);
  while (auto batch_opt = queue.Pop()) {
    Batch* batch = *batch_opt;
    // One unit per batch, never across the blocking Pop.
    const ApplyTally::Unit unit(tally);
    for (const log::LogRecord* rp : batch->recs) {
      const log::LogRecord& rec = *rp;
      EnsureRowBound(rec);
      const std::int64_t t0 = tally.StartSample();
      if (!TryApplyAfterPrev(rec, tally, t0)) {
        // Row affinity makes this unreachable: the predecessor was applied
        // by THIS worker earlier in its batch stream, and a redelivered
        // record resolves as kAlreadyApplied. Should it ever fire, wait in
        // place: the floor stays below the unmarked batch.
        tally.CountDeferred();
        int spins = 0;
        do {
          SpinBackoff(spins);
        } while (!TryApplyAfterPrev(rec, tally, t0));
      }
    }
    // The whole batch is in. Once marked, the prefix may pass it and the
    // scheduler release its segment, so no record is read after this.
    prefix_.Mark(batch->index, batch->end_ts);
    ReleaseBatch(batch);
  }
}

}  // namespace c5::core
