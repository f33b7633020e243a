#include "core/c5_myrocks_replica.h"

#include <algorithm>
#include <thread>

#include "common/clock.h"
#include "common/spin_lock.h"

namespace c5::core {

// ---------------------------------------------------------------------------
// TxnDispatchQueue

void C5MyRocksReplica::TxnDispatchQueue::PushBatch(const TxnUnit* txns,
                                                   std::size_t count) {
  if (count == 0) return;
  bool need_notify;
  {
    MutexLock lock(mu_);
    queue_.insert(queue_.end(), txns, txns + count);
    need_notify = waiters_ > 0;
  }
  size_hint_.fetch_add(count, std::memory_order_release);
  // One wakeup is enough: a woken worker that pops and leaves more behind
  // re-arms nothing, but its sibling spinners see the size hint, and a
  // multi-transaction batch wakes the whole pool explicitly.
  if (need_notify) {
    if (count > 1) {
      cv_.NotifyAll();
    } else {
      cv_.NotifyOne();
    }
  }
}

std::optional<C5MyRocksReplica::TxnUnit>
C5MyRocksReplica::TxnDispatchQueue::Pop(int worker) {
  // In-flight transitions happen under the same mutex as the pop, so
  // MinUnapplied never misses a transaction in transit.
  // Spin phase: wakeup latency dominates when the queue oscillates around
  // empty at high transaction rates, so poll before sleeping. The size hint
  // keeps spinners off the mutex while the queue is empty. The budget is
  // deliberately modest: on a host with fewer cores than threads, a long
  // spin burns the quantum the producer needs to refill the queue.
  for (int spin = 0; spin < 2048; ++spin) {
    if (size_hint_.load(std::memory_order_acquire) > 0) {
      MutexLock lock(mu_);
      if (!queue_.empty()) {
        TxnUnit txn = queue_.front();
        queue_.pop_front();
        size_hint_.fetch_sub(1, std::memory_order_release);
        inflight_[worker] = std::min(inflight_[worker], txn.commit_ts);
        return txn;
      }
    } else if ((spin & 255) == 0) {
      MutexLock lock(mu_);
      if (closed_ && queue_.empty()) return std::nullopt;
    }
    CpuRelax();
  }
  MutexLock lock(mu_);
  waiters_++;
  // Explicit loop (not a predicate lambda): the thread-safety analysis
  // must see the guarded reads performed while mu_ is held.
  while (queue_.empty() && !closed_) cv_.Wait(lock);
  waiters_--;
  if (queue_.empty()) return std::nullopt;
  TxnUnit txn = queue_.front();
  queue_.pop_front();
  size_hint_.fetch_sub(1, std::memory_order_release);
  inflight_[worker] = std::min(inflight_[worker], txn.commit_ts);
  return txn;
}

std::optional<C5MyRocksReplica::TxnUnit>
C5MyRocksReplica::TxnDispatchQueue::TryPop(int worker) {
  if (size_hint_.load(std::memory_order_acquire) == 0) return std::nullopt;
  MutexLock lock(mu_);
  if (queue_.empty()) return std::nullopt;
  TxnUnit txn = queue_.front();
  queue_.pop_front();
  size_hint_.fetch_sub(1, std::memory_order_release);
  inflight_[worker] = std::min(inflight_[worker], txn.commit_ts);
  return txn;
}

void C5MyRocksReplica::TxnDispatchQueue::SetFloor(int worker, Timestamp ts) {
  MutexLock lock(mu_);
  inflight_[worker] = ts;
}

void C5MyRocksReplica::TxnDispatchQueue::Close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.NotifyAll();
}

Timestamp C5MyRocksReplica::TxnDispatchQueue::MinUnapplied() const {
  MutexLock lock(mu_);
  Timestamp min_ts = kMaxTimestamp;
  if (!queue_.empty()) min_ts = queue_.front().commit_ts;
  for (const Timestamp ts : inflight_) min_ts = std::min(min_ts, ts);
  return min_ts;
}

// ---------------------------------------------------------------------------
// C5MyRocksReplica

C5MyRocksReplica::C5MyRocksReplica(storage::Database* db,
                                   const replica::ProtocolOptions& options)
    : ReplicaBase(db, options),
      dispatch_(options.num_workers),
      last_write_ts_(options.scheduler_map_capacity) {}

void C5MyRocksReplica::Schedule(log::LogSegment& seg) {
  std::size_t txn_start = 0;
  auto& records = seg.records();
  batch_.clear();
  for (std::size_t i = 0; i < records.size(); ++i) {
    log::LogRecord& rec = records[i];
    StampPrevTs(last_write_ts_, rec);

    if (rec.last_in_txn) {
      // Collect the transaction in commit order (§5.1: the scheduler
      // "puts the transaction's first write in the scheduler queue"; the
      // worker follows the chain of the transaction's writes).
      batch_.push_back(TxnUnit{&records[txn_start], i - txn_start + 1,
                               rec.commit_ts});
      txn_start = i + 1;
    }
  }
  // Whole segment under one queue mutex acquisition / one wakeup.
  dispatch_.PushBatch(batch_.data(), batch_.size());
  seg.MarkPreprocessed();
}

void C5MyRocksReplica::WorkerLoop(int idx) {
  ApplyTally tally(this, idx);

  // A write deferred because its predecessor is not in place yet.
  // sample_t0 is -1 for unsampled records.
  struct Pending {
    std::uint32_t idx;
    std::int64_t sample_t0;
  };
  // An in-flight transaction: popped, all ready writes applied, the rest
  // pending. The worker keeps a WINDOW of these (front = oldest) instead
  // of stalling on the oldest one's deferred writes: a stall here means
  // the predecessor lives in another worker's in-flight transaction, and
  // on a host with fewer cores than workers that worker cannot run until
  // we give up the core — waiting in-place turns every contended-row-last
  // transaction (TPC-C's optimized Payment writes the hot warehouse row
  // LAST) into a scheduler-quantum hand-off. With a window, the wait
  // overlaps applying newer transactions' independent writes, and the
  // whole window's deferred writes resolve in one sweep when the
  // predecessor lands (see docs/PERFORMANCE.md).
  struct OpenTxn {
    TxnUnit txn;
    std::vector<Pending> pending;
  };
  std::deque<OpenTxn> open;
  std::vector<std::vector<Pending>> spare;  // recycled pending vectors
  // Window size: deep enough to ride out a predecessor worker's full
  // descheduling, small enough that the visibility floor (the window
  // front) never lags the log by a perceptible amount.
  constexpr std::size_t kMaxOpen = 64;

  // One pass over every open transaction's deferred writes (§5.1's "wait
  // until the write is safe, then execute it", batched). Returns true if
  // any write landed. Writes above an armed snapshot barrier are skipped,
  // not waited for (§5.2 blocks installs beyond the boundary; skipping
  // keeps the sweep non-blocking while the snapshotter holds the barrier).
  auto sweep = [&]() -> bool {
    bool progress = false;
    const Timestamp barrier = barrier_ts_.load(std::memory_order_acquire);
    for (OpenTxn& ot : open) {
      if (ot.pending.empty() || ot.txn.commit_ts > barrier) continue;
      std::size_t remaining = 0;
      for (const Pending& p : ot.pending) {
        // For a deferred write the sample includes the full predecessor
        // stall: p99 here is the tail cost of a write waiting for its row
        // dependency, the §5.1 metric.
        if (TryApplyAfterPrev(ot.txn.first[p.idx], tally, p.sample_t0)) {
          progress = true;
        } else {
          ot.pending[remaining++] = p;
        }
      }
      ot.pending.resize(remaining);
    }
    return progress;
  };

  // Retires completed transactions from the window front (visibility is
  // transaction-granularity: the floor only advances past a transaction
  // when ALL its writes are in) and republishes the in-flight floor.
  auto retire_front = [&]() {
    bool moved = false;
    while (!open.empty() && open.front().pending.empty()) {
      spare.push_back(std::move(open.front().pending));
      open.pop_front();
      moved = true;
    }
    if (moved) {
      dispatch_.SetFloor(idx, open.empty() ? kMaxTimestamp
                                           : open.front().txn.commit_ts);
    }
  };

  while (true) {
    // One unit per iteration (a sweep and at most one popped transaction),
    // ended before any wait: Pop blocks, and the stall sleep below can
    // outlast many GC passes.
    std::optional<ApplyTally::Unit> unit(std::in_place, tally);
    if (sweep()) retire_front();
    if (open.empty()) unit.reset();

    // Take on new work while the window has room. Blocking Pop only when
    // nothing is open (nothing to sweep while we wait).
    std::optional<TxnUnit> txn_opt =
        open.size() < kMaxOpen
            ? (open.empty() ? dispatch_.Pop(idx) : dispatch_.TryPop(idx))
            : std::nullopt;
    if (!txn_opt.has_value()) {
      if (open.empty()) break;  // Pop drained a closed queue: done
      // Window stalled on predecessors owned by other workers. A real (if
      // tiny) sleep, not a yield: a yielding thread keeps its low vruntime
      // and can be rescheduled immediately ahead of the very worker it
      // waits for, so a yield loop livelocks-by-slowness against CPU-bound
      // peers (measured: both pure-yield and spin-then-yield were an order
      // of magnitude worse on a single-core host under a read-only client
      // load). The sleep forcibly deschedules us so a peer can run; the
      // window amortizes its wakeup latency over every transaction in it.
      unit.reset();
      std::this_thread::sleep_for(std::chrono::microseconds(1));
      continue;
    }

    if (!unit.has_value()) unit.emplace(tally);
    const TxnUnit txn = *txn_opt;
    std::vector<Pending> pending;
    if (!spare.empty()) {
      pending = std::move(spare.back());
      spare.pop_back();
      pending.clear();
    }
    for (std::size_t i = 0; i < txn.count; ++i) {
      const log::LogRecord& rec = txn.first[i];
      const std::int64_t sample_t0 = tally.StartSample();
      EnsureRowBound(rec);
      // §5.2: while a snapshot is being taken, writes beyond the boundary n
      // must wait ("choosing n also blocks workers from executing writes
      // with sequence numbers greater than n until after the snapshot").
      int barrier_spins = 0;
      while (rec.commit_ts > barrier_ts_.load(std::memory_order_acquire)) {
        SpinBackoff(barrier_spins);
      }
      if (!TryApplyAfterPrev(rec, tally, sample_t0)) {
        tally.CountDeferred();
        pending.push_back(Pending{static_cast<std::uint32_t>(i), sample_t0});
      }
    }
    open.push_back(OpenTxn{txn, std::move(pending)});
    retire_front();
  }
}

Timestamp C5MyRocksReplica::ApplyFloor() {
  // The watermark is read FIRST: every transaction at or below it was
  // dispatched before it was published, so an empty MinUnapplied read
  // afterwards proves all of them applied. (Read second, a segment
  // dispatched in between would be published before it is applied.)
  const Timestamp wm = watermark_.load(std::memory_order_acquire);
  const Timestamp min_unapplied = dispatch_.MinUnapplied();
  return min_unapplied == kMaxTimestamp ? wm : min_unapplied - 1;
}

void C5MyRocksReplica::PublishSnapshot(Timestamp n) {
  barrier_ts_.store(n, std::memory_order_release);
  if (options_.snapshot_cost.count() > 0) {
    // Simulated RocksDB snapshot acquisition under write blocking.
    const Stopwatch sw;
    while (sw.ElapsedNanos() < options_.snapshot_cost.count() * 1000) {
      CpuRelax();
    }
  }
  ReplicaBase::PublishSnapshot(n);
  barrier_ts_.store(kMaxTimestamp, std::memory_order_release);
}

}  // namespace c5::core
