#ifndef C5_LOG_LOG_COLLECTOR_H_
#define C5_LOG_LOG_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/event_count.h"
#include "common/mpmc_queue.h"
#include "common/mutex.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "log/log_segment.h"
#include "log/segment_source.h"

namespace c5::log {

// A committed transaction's writes, in operation order, as a borrowed view:
// the records (and the bytes their values view) belong to the caller and are
// valid only for the duration of the LogCommit call. Sinks that buffer must
// copy — into pooled, arena-backed storage on the hot paths, so the shipping
// pipeline performs no heap allocation in steady state.
using RecordSpan = std::span<const LogRecord>;

// Sink for committed transactions' writes. The primary's engines call
// LogCommit exactly once per committed read-write transaction, after
// validation and before the commit becomes visible (§7.1: "After execution
// and validation but before committing, each client thread logs its changes").
class LogCollector {
 public:
  virtual ~LogCollector() = default;

  // `records` are the transaction's writes in operation order; the engine has
  // set commit_ts on each and last_in_txn on the final record. Borrowed: see
  // RecordSpan.
  virtual void LogCommit(RecordSpan records) = 0;
};

// Discards everything (primary-only benchmarks, e.g. "Cicada without
// logging" upper-bound runs).
class NullLogCollector : public LogCollector {
 public:
  void LogCommit(RecordSpan) override {}
};

// Fans one committed transaction out to every sink. Since LogCommit hands
// sinks a borrowed view, the tee just forwards the same span — no per-sink
// copies; each sink that needs ownership copies into its own storage. One of
// these sits between a shard group's engine and its shipping fan-out
// (c5::Cluster), so a sharded deployment runs shards × backups independent
// streams.
class TeeCollector : public LogCollector {
 public:
  explicit TeeCollector(std::vector<LogCollector*> sinks)
      : sinks_(std::move(sinks)) {}

  void LogCommit(RecordSpan records) override;

 private:
  std::vector<LogCollector*> sinks_;
};

// Filtered tee: forwards only the records matching `keep`, preserving
// transaction framing (commit_ts kept; last_in_txn re-stamped onto the last
// surviving record; transactions with no surviving record are dropped
// whole). This is the migration catch-up stream: a tap over the source
// shard's commit stream that keeps just the moving partitions' writes
// (ShardedCluster::Rebalance attaches one via Cluster::AttachTap).
class FilteredCollector : public LogCollector {
 public:
  using Predicate = std::function<bool(const LogRecord&)>;

  FilteredCollector(LogCollector* sink, Predicate keep)
      : sink_(sink), keep_(std::move(keep)) {}

  void LogCommit(RecordSpan records) override;

 private:
  LogCollector* sink_;
  Predicate keep_;
};

// Collects committed records into a locked in-memory buffer the consumer
// drains on its own schedule. Arrival order is commit-call order, which for
// MVTSO is NOT commit-timestamp order — consumers that care (the migration
// tail applier) resolve per key by commit_ts (newest wins), which converges
// to the source's final state under any arrival order.
//
// Value bytes are internalized into a rope owned by THIS collector and stay
// alive until the collector is destroyed (drained records keep viewing
// them) — fine for its use as a bounded migration tail window.
class BufferCollector : public LogCollector {
 public:
  BufferCollector() : values_(&ShippingArena()) {}

  void LogCommit(RecordSpan records) override;

  // Moves everything buffered so far onto the end of *out; returns how many
  // records were drained. Thread-safe against concurrent LogCommit. Drained
  // records view bytes owned by this collector (see class comment).
  std::size_t DrainInto(std::vector<LogRecord>* out);

  std::uint64_t TotalRecords() const {
    return total_.load(std::memory_order_acquire);
  }

 private:
  mutable SpinLock lock_{LockRank::kCollector};
  std::vector<LogRecord> records_ C5_GUARDED_BY(lock_);
  ArenaRope values_ C5_GUARDED_BY(lock_);
  std::atomic<std::uint64_t> total_{0};
};

// Private copy of a log: fresh segments, prev_ts cleared so a C5 scheduler
// can re-preprocess the copy. Replicas mutate delivered segments in place,
// so feeding one history to several consumers (failover catch-up ships the
// promoted primary's delta to every survivor) requires a copy per consumer.
std::unique_ptr<Log> CopyLog(const Log& log);

// Offline collection: commits land in per-shard buffers with negligible
// contention (each worker thread hashes to its own shard); Coalesce() then
// produces the single totally ordered log, emulating the paper's
// "per-thread logs are coalesced into a single, totally ordered log before
// the backup's scheduler, workers, and snapshotter start" (§7.1).
class PerThreadLogCollector : public LogCollector {
 public:
  explicit PerThreadLogCollector(std::size_t segment_records = 4096);

  void LogCommit(RecordSpan records) override;

  // Merges all buffered transactions into commit-timestamp order and packs
  // them into segments (never splitting a transaction across segments).
  // Leaves the collector empty.
  Log Coalesce();

  std::size_t BufferedTxns() const;

 private:
  struct Shard {
    Shard() : values(&ShippingArena()) {}
    mutable SpinLock lock{LockRank::kCollector};
    std::vector<std::vector<LogRecord>> txns C5_GUARDED_BY(lock);
    // Backs the buffered records until Coalesce(). Clearing it takes the
    // arena freelist lock UNDER this one (kCollector < kArenaFree).
    ArenaRope values C5_GUARDED_BY(lock);
  };

  static constexpr int kShards = 256;
  const std::size_t segment_records_;
  std::unique_ptr<Shard[]> shards_;
};

// Online collection: commits are sequenced into commit-timestamp order, then
// appended to an open segment; full segments (closed at transaction
// boundaries) are shipped through unbounded channels (MpmcQueue, one per
// subscriber) to the backups' schedulers, so shipping never waits for a
// consumer while it holds the sequencer.
// Models prompt log delivery (§2.4) with the total ordering a real
// group-commit log provides.
//
// Sequencing: threads may call LogCommit out of timestamp order (an MVTSO
// thread with a larger timestamp can reach its commit point first), so
// transactions are buffered in a min-heap and released only when their
// timestamp falls below the engine-provided release horizon — the smallest
// timestamp any in-flight transaction could still commit with. Without a
// horizon function, entries release in arrival order (only valid for
// engines whose arrival order IS commit order).
//
// Fan-out: the sequencer runs ONCE per shard group. Each subscriber
// (backup) has its own channel; subscriber 0 receives the sealed segment
// itself and later subscribers receive shared-payload views (private record
// array + prev_ts, refcounted value bytes) — no per-backup payload copies.
//
// Retention: each lane stores the segments it shipped until its consumer
// releases them (SegmentSource::Release through MakeSource's source), then
// frees them; value bytes shared across lanes go with the last lane's
// release (SegmentValueStore refcount). Trimming takes only the lane's own
// store lock, never the sequencer mutex. A lane consumed through a plain
// ChannelSegmentSource never releases, so it keeps every segment.
//
// Allocation discipline: pending transactions are staged in pooled buffers
// (record vector + value-byte buffer, both capacity-recycling), and value
// bytes land in arena-rope-backed segment stores, so steady-state LogCommit
// performs no heap allocation beyond the rare segment-object itself.
class OnlineLogCollector : public LogCollector {
 public:
  // Returns a timestamp H such that no future LogCommit can carry ts < H.
  using ReleaseHorizonFn = std::function<Timestamp()>;

  explicit OnlineLogCollector(std::size_t segment_records = 1024);
  ~OnlineLogCollector() override;

  void SetReleaseHorizon(ReleaseHorizonFn fn) { horizon_fn_ = std::move(fn); }

  void LogCommit(RecordSpan records) override;

  // Closes the open segment (if non-empty) and ships it. Call periodically
  // from a flusher thread (or rely on segment-full shipping) so lag does not
  // include batching delay. Returns false when it found nothing open and
  // nothing pending: the flusher may then park in AwaitCommit().
  bool Flush();

  // Parks the calling thread until a transaction is open or pending (the
  // next LogCommit wakes it) or stop() holds. Whoever makes stop() true
  // then calls WakeCommitWaiters().
  void AwaitCommit(const std::function<bool()>& stop);
  void WakeCommitWaiters() { logged_.NotifyAll(); }

  // Flushes and closes every subscriber channel; the backups drain and
  // terminate.
  void Finish();

  // The backup side: pops segments in order; nullopt after Finish() + drain.
  // This is subscriber 0's channel (always present).
  MpmcQueue<LogSegment*>& channel();

  // Adds a shipping lane. Call before the first LogCommit (fan-out topology
  // is fixed once shipping starts). Returns the new lane's channel.
  MpmcQueue<LogSegment*>* AddSubscriber();

  // A source over lane `channel` (channel() or an AddSubscriber() result)
  // whose Release frees the lane's stored segments. One consumer per lane.
  std::unique_ptr<ChannelSegmentSource> MakeSource(
      MpmcQueue<LogSegment*>* channel);

  std::uint64_t ShippedSegments() const {
    return shipped_.load(std::memory_order_relaxed);
  }

  // Segments stored across all lanes (shipped, not yet released).
  std::uint64_t RetainedSegments() const;

 private:
  // Pooled staging for one committed transaction awaiting release: owns its
  // records and their value bytes so the borrowed LogCommit span can die.
  struct PendingTxn {
    Timestamp ts = 0;
    std::vector<LogRecord> records;
    std::string values;  // capacity-recycled backing for the records' views
  };
  struct PendingOrder {
    bool operator()(const PendingTxn* a, const PendingTxn* b) const {
      return a->ts > b->ts;
    }
  };
  // One shipping lane: its channel and the store that owns what it shipped
  // until the consumer releases it.
  struct Subscriber {
    // Under the sequencer mutex (ShipLocked).
    void Store(std::unique_ptr<LogSegment> seg);
    // Consumer thread only: frees stored segments in ship order up to the
    // first whose end exceeds end_seq.
    void Release(std::uint64_t end_seq);
    std::size_t Retained() const;

    std::unique_ptr<MpmcQueue<LogSegment*>> channel =
        std::make_unique<MpmcQueue<LogSegment*>>();
    mutable SpinLock store_lock{LockRank::kQueue};
    // Live segments are store[head, size): a vector with a moving head, so
    // steady-state store + release recycles capacity instead of allocating.
    std::vector<std::unique_ptr<LogSegment>> store C5_GUARDED_BY(store_lock);
    std::size_t head C5_GUARDED_BY(store_lock) = 0;
    // Released segments are destroyed here, outside store_lock (consumer
    // thread only; capacity reused).
    std::vector<std::unique_ptr<LogSegment>> graveyard;
  };

  void ShipLocked() C5_REQUIRES(mu_);
  // Something is open or pending.
  bool HasUnshippedLocked() const C5_REQUIRES(mu_) {
    return (open_ != nullptr && !open_->empty()) || !pending_.empty();
  }
  void DrainLocked(Timestamp horizon) C5_REQUIRES(mu_);
  PendingTxn* AcquirePending() C5_REQUIRES(mu_);

  const std::size_t segment_records_;
  // Called OUTSIDE mu_ (it may consult engine state); see LogCommit/Flush.
  ReleaseHorizonFn horizon_fn_;
  mutable Mutex mu_{LockRank::kCollector};
  std::priority_queue<PendingTxn*, std::vector<PendingTxn*>, PendingOrder>
      pending_ C5_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<PendingTxn>> pending_pool_
      C5_GUARDED_BY(mu_);                                  // all ever made
  std::vector<PendingTxn*> pending_free_ C5_GUARDED_BY(mu_);  // available
  std::uint64_t next_seq_ C5_GUARDED_BY(mu_) = 0;
  std::unique_ptr<LogSegment> open_ C5_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Subscriber>> subscribers_ C5_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> shipped_{0};
  // Notified by every LogCommit; AwaitCommit parks on it.
  EventCount logged_;
};

}  // namespace c5::log

#endif  // C5_LOG_LOG_COLLECTOR_H_
