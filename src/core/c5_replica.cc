#include "core/c5_replica.h"

#include <algorithm>

#include "common/clock.h"
#include "common/flat_map.h"

namespace c5::core {

C5Replica::C5Replica(storage::Database* db,
                     const replica::ProtocolOptions& options,
                     replica::LagTracker* lag)
    : ReplicaBase(db, options, lag) {
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

void C5Replica::SchedulerLoop(log::SegmentSource* source) {
  // Row id -> timestamp of the last write seen for it. This is the entire
  // scheduler state (§7.2): per-row FIFOs are embedded in the log via
  // prev_timestamp instead of being materialized. A pre-sized flat map
  // keeps the single scheduler thread off the allocator and out of
  // node-based pointer chasing — it touches exactly one cache line per
  // record in the common case.
  FlatMap<Timestamp> last_write_ts(options_.scheduler_map_capacity);
  const std::size_t nw = workers_.size();
  std::vector<Batch*> out(nw, nullptr);

  while (log::LogSegment* seg = NextSegment(source)) {
    for (log::LogRecord& rec : seg->records()) {
      const std::uint64_t name = StampPrevTs(last_write_ts, rec);

      // Partition by scheduler key: Fibonacci-mix the row name so dense row
      // ids spread evenly, then reduce mod N. Row affinity is both the
      // load-balancing and the ordering argument — every write of a row
      // lands on the same worker in log order, so predecessors are always
      // installed by the time the successor is attempted (redeliveries are
      // stale and resolve as kAlreadyApplied). Record pointers stay in log
      // order within a batch; the segment's own record array is never
      // reordered (prev_ts chains stay inspectable in log order).
      const std::size_t widx = static_cast<std::size_t>(
                                   (name * 0x9E3779B97F4A7C15ull) >> 32) %
                               nw;
      Batch*& b = out[widx];
      if (b == nullptr) b = AcquireBatch();
      const Timestamp rec_floor = rec.commit_ts - 1;
      if (b->recs.empty() || rec_floor < b->floor) b->floor = rec_floor;
      b->recs.push_back(&rec);
    }
    seg->MarkPreprocessed();
    // Hand batches to workers BEFORE publishing the watermark: an idle
    // worker that read the watermark and then found its queue empty may
    // publish that watermark as its c', which is only safe if every batch
    // enqueued afterwards carries timestamps at or above the watermark.
    for (std::size_t i = 0; i < nw; ++i) {
      if (out[i] != nullptr) {
        workers_[i]->queue.Push(out[i]);
        out[i] = nullptr;
      }
    }
    AdvanceWatermark(*seg);
  }
  CloseQueues();
}

void C5Replica::CloseQueues() {
  for (auto& w : workers_) w->queue.Close();
}

void C5Replica::FlushCounts(LocalCounts& counts) {
  if (counts.applied_writes != 0) {
    stats_.applied_writes.fetch_add(counts.applied_writes,
                                    std::memory_order_relaxed);
  }
  if (counts.applied_txns != 0) {
    stats_.applied_txns.fetch_add(counts.applied_txns,
                                  std::memory_order_relaxed);
  }
  if (counts.deferred_writes != 0) {
    stats_.deferred_writes.fetch_add(counts.deferred_writes,
                                     std::memory_order_relaxed);
  }
  counts = LocalCounts{};
}

bool C5Replica::TryApply(const log::LogRecord& rec, LocalCounts& counts) {
  storage::Table& table = db_->table(rec.table);
  // kAlreadyApplied records (at-least-once delivery, checkpoint resume)
  // count as applied so caught-up accounting and c' advancement still hold.
  if (table.TryInstallIfPrev(rec.row, rec.prev_ts, rec.commit_ts, rec.value,
                             rec.op == OpType::kDelete) ==
      storage::PrevInstall::kNotReady) {
    return false;
  }
  ++counts.applied_writes;
  if (rec.last_in_txn) ++counts.applied_txns;
  return true;
}

bool C5Replica::RetryDeferred(std::deque<const log::LogRecord*>& deferred,
                              LocalCounts& counts) {
  bool progress = false;
  // FIFO sweep: earlier (smaller-timestamp) writes unblock later ones.
  for (std::size_t n = deferred.size(); n > 0; --n) {
    const log::LogRecord* rec = deferred.front();
    deferred.pop_front();
    if (TryApply(*rec, counts)) {
      progress = true;
    } else {
      deferred.push_back(rec);
    }
  }
  return progress;
}

void C5Replica::WorkerLoop(int idx) {
  WorkerState& me = *workers_[idx];
  std::deque<const log::LogRecord*> deferred;
  ApplySampler sampler(this);
  LocalCounts counts;

  auto publish_c_prime = [&me](Timestamp floor) {
    me.c_prime.store(floor, std::memory_order_release);
  };
  // Fleet-model accounting: credit this batch's applied records and
  // thread-CPU time to the worker, then flush the stats deltas. Idle
  // spinning between batches is deliberately outside the measured window.
  auto account_batch = [&me, &counts, this](std::int64_t cpu_start) {
    me.cpu_ns.fetch_add(
        static_cast<std::uint64_t>(ThreadCpuNowNanos() - cpu_start),
        std::memory_order_relaxed);
    me.applied_records.fetch_add(counts.applied_writes,
                                 std::memory_order_relaxed);
    FlushCounts(counts);
  };

  int idle_spins = 0;
  while (true) {
    // Read the watermark BEFORE checking the queue (see SchedulerLoop).
    const Timestamp idle_floor = watermark_.load(std::memory_order_acquire);
    auto batch_opt = me.queue.TryPop();
    if (!batch_opt.has_value()) {
      if (!deferred.empty()) {
        // Defensive fallback: unreachable under row affinity (a row's
        // records always land here in log order), kept for robustness.
        const std::int64_t cpu0 = ThreadCpuNowNanos();
        {
          const auto guard = db_->epochs().Enter();
          if (RetryDeferred(deferred, counts)) idle_spins = 0;
        }
        account_batch(cpu0);
        if (!deferred.empty()) {
          publish_c_prime(deferred.front()->commit_ts - 1);
          SpinBackoff(idle_spins);
        } else {
          publish_c_prime(idle_floor);
        }
        continue;
      }
      publish_c_prime(idle_floor);
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
    // Everything this worker might still execute is above the batch floor;
    // older deferred writes (if any) take precedence. Published BEFORE the
    // first apply so the snapshotter can never observe a torn batch: c'
    // only lags the true floor, never exceeds it.
    publish_c_prime(deferred.empty()
                        ? batch->floor
                        : std::min(batch->floor,
                                   deferred.front()->commit_ts - 1));

    const std::int64_t cpu0 = ThreadCpuNowNanos();
    // One epoch guard per batch, never across the idle wait above.
    const auto guard = db_->epochs().Enter();
    for (const log::LogRecord* rp : batch->recs) {
      const log::LogRecord& rec = *rp;
      // Row-slot creation and index maintenance are idempotent; do them on
      // first sight so deferred retries only need the install.
      EnsureRowBound(rec);
      const std::int64_t t0 = sampler.Begin();
      if (TryApply(rec, counts)) {
        sampler.End(t0);
      } else {
        // Defer and move on; deferred writes are re-checked at batch
        // boundaries (§7.2). Row affinity makes this unreachable in
        // practice (the predecessor was applied by THIS worker earlier in
        // the batch stream), but redelivery and crash-restart schedules
        // keep the guard honest.
        deferred.push_back(&rec);
        ++counts.deferred_writes;
      }
    }
    // §7.2: re-check deferred writes at the end of each batch.
    RetryDeferred(deferred, counts);
    account_batch(cpu0);
    if (!deferred.empty()) {
      publish_c_prime(deferred.front()->commit_ts - 1);
    }
    ReleaseBatch(batch);
  }

  // Drain any remaining deferred writes (their predecessors are owned by
  // other workers and will land).
  int drain_spins = 0;
  while (!deferred.empty()) {
    const std::int64_t cpu0 = ThreadCpuNowNanos();
    bool progress = false;
    {
      const auto guard = db_->epochs().Enter();
      progress = RetryDeferred(deferred, counts);
    }
    account_batch(cpu0);
    if (progress) drain_spins = 0;
    if (!deferred.empty()) {
      publish_c_prime(deferred.front()->commit_ts - 1);
      SpinBackoff(drain_spins);
    }
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

std::vector<C5Replica::WorkerLoad> C5Replica::WorkerLoads() const {
  std::vector<WorkerLoad> loads;
  loads.reserve(workers_.size());
  for (const auto& w : workers_) {
    loads.push_back(
        WorkerLoad{w->applied_records.load(std::memory_order_acquire),
                   w->cpu_ns.load(std::memory_order_acquire)});
  }
  return loads;
}

}  // namespace c5::core
