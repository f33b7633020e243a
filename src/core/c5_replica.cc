#include "core/c5_replica.h"

namespace c5::core {

C5Replica::C5Replica(storage::Database* db,
                     const replica::ProtocolOptions& options)
    : ReplicaBase(db, options),
      last_write_ts_(options.scheduler_map_capacity),
      out_(options.num_workers, nullptr) {
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(std::make_unique<WorkerState>(/*queue_capacity=*/4096));
  }
}

C5Replica::Batch* C5Replica::AcquireBatch() {
  {
    const SpinLockGuard lock(pool_lock_);
    if (!batch_free_.empty()) {
      Batch* b = batch_free_.back();
      batch_free_.pop_back();
      return b;
    }
  }
  // Pool miss: only during warm-up (steady state recycles). Keep the
  // allocation outside the lock.
  auto owned = std::make_unique<Batch>();
  Batch* b = owned.get();
  const SpinLockGuard lock(pool_lock_);
  batch_storage_.push_back(std::move(owned));
  return b;
}

void C5Replica::ReleaseBatch(Batch* batch) {
  batch->recs.clear();  // keeps capacity — the point of pooling
  batch->floor = 0;
  const SpinLockGuard lock(pool_lock_);
  batch_free_.push_back(batch);
}

void C5Replica::Schedule(log::LogSegment& seg) {
  const std::size_t nw = workers_.size();
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
    const Timestamp rec_floor = rec.commit_ts - 1;
    if (b->recs.empty() || rec_floor < b->floor) b->floor = rec_floor;
    b->recs.push_back(&rec);
  }
  seg.MarkPreprocessed();
  // Hand batches to workers BEFORE the segment loop publishes the
  // watermark: an idle worker that read the watermark and then found its
  // queue empty may publish that watermark as its c', which is only safe if
  // every batch enqueued afterwards carries timestamps at or above the
  // watermark.
  for (std::size_t i = 0; i < nw; ++i) {
    if (out_[i] != nullptr) {
      workers_[i]->queue.Push(out_[i]);
      out_[i] = nullptr;
    }
  }
}

void C5Replica::CloseQueues() {
  for (auto& w : workers_) w->queue.Close();
}

void C5Replica::WorkerLoop(int idx) {
  WorkerState& me = *workers_[idx];
  ApplyTally tally(this, idx);

  int idle_spins = 0;
  while (true) {
    // Read the watermark BEFORE checking the queue (see Schedule).
    const Timestamp idle_floor = watermark_.load(std::memory_order_acquire);
    auto batch_opt = me.queue.TryPop();
    if (!batch_opt.has_value()) {
      me.c_prime.store(idle_floor, std::memory_order_release);
      if (me.queue.closed()) {
        // Re-check after observing closure (a batch may have raced in).
        batch_opt = me.queue.TryPop();
        if (!batch_opt.has_value()) break;
      } else {
        SpinBackoff(idle_spins);
        continue;
      }
    }

    Batch* batch = *batch_opt;
    idle_spins = 0;  // new wait episode once this batch is done
    // ONE c' bump per batch — the epoch-batched visibility publication.
    // Everything this worker might still execute is above the batch floor.
    // Published BEFORE the first apply so the snapshotter can never observe
    // a torn batch: c' only lags the true floor, never exceeds it.
    me.c_prime.store(batch->floor, std::memory_order_release);

    // One unit per batch, never across the idle wait above.
    const ApplyTally::Unit unit(tally);
    for (const log::LogRecord* rp : batch->recs) {
      const log::LogRecord& rec = *rp;
      EnsureRowBound(rec);
      const std::int64_t t0 = tally.StartSample();
      if (!TryApplyAfterPrev(rec, tally, t0)) {
        // Row affinity makes this unreachable: the predecessor was applied
        // by THIS worker earlier in its batch stream, and a redelivered
        // record resolves as kAlreadyApplied. Should it ever fire, wait in
        // place: the published c' is still at or below this record.
        tally.CountDeferred();
        int spins = 0;
        do {
          SpinBackoff(spins);
        } while (!TryApplyAfterPrev(rec, tally, t0));
      }
    }
    ReleaseBatch(batch);
  }
  me.c_prime.store(kMaxTimestamp, std::memory_order_release);
}

Timestamp C5Replica::ApplyFloor() {
  Timestamp n = watermark_.load(std::memory_order_acquire);
  for (const auto& w : workers_) {
    const Timestamp cp = w->c_prime.load(std::memory_order_acquire);
    if (cp < n) n = cp;
  }
  return n;
}

}  // namespace c5::core
