#include "core/c5_myrocks_replica.h"

#include <chrono>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/spin_lock.h"

namespace c5::core {

C5MyRocksReplica::C5MyRocksReplica(storage::Database* db,
                                   const replica::ProtocolOptions& options)
    : ReplicaBase(db, options),
      last_write_ts_(options.scheduler_map_capacity) {}

void C5MyRocksReplica::Schedule(log::LogSegment& seg) {
  std::size_t txn_start = 0;
  auto& records = seg.records();
  batch_.clear();
  for (std::size_t i = 0; i < records.size(); ++i) {
    log::LogRecord& rec = records[i];
    StampPrevTs(last_write_ts_, rec);

    if (rec.last_in_txn) {
      if (!prefix_.HasRoom(txn_index_ + 1)) {
        dispatch_.PushAll(batch_);
        batch_.clear();
        if (!AwaitPrefixRoom(txn_index_ + 1)) return;
      }
      // Collect the transaction in commit order (§5.1: the scheduler
      // "puts the transaction's first write in the scheduler queue"; the
      // worker follows the chain of the transaction's writes).
      batch_.push_back(TxnUnit{&records[txn_start], i - txn_start + 1,
                               rec.commit_ts, txn_index_++});
      txn_start = i + 1;
    }
  }
  // Whole segment under one queue lock acquisition / one wakeup call.
  dispatch_.PushAll(batch_);
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

  // Retires completed transactions from the window front and marks them
  // (visibility is transaction-granularity: the prefix only passes a
  // transaction once ALL its writes are in).
  auto retire_front = [&]() {
    while (!open.empty() && open.front().pending.empty()) {
      const TxnUnit& done = open.front().txn;
      prefix_.Mark(done.index, done.commit_ts);
      spare.push_back(std::move(open.front().pending));
      open.pop_front();
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
            ? (open.empty() ? dispatch_.Pop() : dispatch_.TryPop())
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
