// The shared backup skeleton and the one replica configuration.
//
// ReplicaBase owns every mechanism a backup needs besides its scheduling
// rule, so a protocol implements only Schedule (and, with workers,
// WorkerLoop and CloseQueues; without workers, ApplyFloor):
//  * Thread lifecycle. Start() runs the segment loop on one scheduler
//    thread, WorkerLoop on ProtocolOptions::num_workers threads and, for a
//    protocol with workers, the visibility loop and (with
//    ProtocolOptions::gc_every > 0) the maintenance loop. Stop() sets the
//    shutdown flag, after which the segment loop hands out nothing more,
//    joins the scheduler, calls CloseQueues() and joins the rest, so every
//    unit handed out is applied before its worker exits. Every most-derived
//    destructor calls Stop(), because the threads touch derived members.
//  * Segment loop. The scheduler thread takes each segment from
//    NextSegment, hands it to Schedule, then advances watermark(); a
//    protocol without workers also publishes ApplyFloor() as the apply
//    floor after each segment. Every protocol therefore releases the log it
//    has applied (log/segment_source.h).
//  * End of log. One outstanding-work count starts at 1, the scheduler's
//    hold, which the segment loop drops once the source is drained. A
//    protocol that hands out work it must see finished first (KuaFu's
//    transactions, a granularity replica's writes) adds it with AddWork and
//    retires it with FinishWork; the decrement that reaches 0 calls
//    CloseQueues(), so the workers exit once the work is done.
//  * Apply floor. With workers, the scheduler numbers each unit of work once
//    it fits in the one PrefixTracker (AwaitPrefixRoom); a worker marks it
//    once applied and reads none of its records after. The default
//    ApplyFloor() is the last transaction of the marked prefix (§7.2's n).
//  * Visibility loop. Each pass publishes ApplyFloor() as the apply floor,
//    advances the snapshot through PublishSnapshot() when the floor passed
//    it, reports VisibleTimestamp() to the LagTracker and wakes the
//    scheduler's and WaitUntilCaughtUp()'s waits; it exits after the first
//    pass that began drained (scheduler done, every worker exited), or
//    after Stop(). No pass starts within one snapshot_interval of the one
//    before, so the interval caps the publish rate. When everything handed
//    out is published (the scheduler is between segments and the snapshot
//    covers watermark()), the loop parks with no deadline until the next
//    mark at the prefix's head (PrefixTracker::AwaitMark), so an idle
//    replica costs no wake-ups; it then follows the head until the new work
//    is all applied, for at most one interval, and publishes it in one
//    pass. It never collects garbage, so a GC pass never delays a publish.
//  * Maintenance loop. storage::Database::MaintenanceLoop, the loop a
//    Cluster's primary runs too, at GcHorizon() after a timed wait of
//    gc_every snapshot intervals (times its backoff), timed into
//    ReplicaStats. It exits after the first pass that began once the
//    visibility loop had exited, and without a pass once Stop() was called.
//  * Caught-up wait. WaitUntilCaughtUp() returns once the replica is drained
//    and VisibleTimestamp() covers watermark(), the scheduler's monotone
//    high-water mark (AdvanceWatermark). Every wait here goes through an
//    EventCount: a publish, the end of the work and Stop() notify.
//  * Scheduler preprocessing (RowName, StampPrevTs).
//  * The apply step. ApplyRecord installs a record if it is newer than its
//    row (the rule of granularity, KuaFu and serial replay);
//    TryApplyAfterPrev installs it once its row's predecessor is in place
//    (C5 and C5-MyRocks). Both count into the applying thread's ApplyTally,
//    which flushes into stats() and WorkerLoads() once per
//    ApplyTally::Unit, the epoch-guarded unit of work.
//
// Invariants every protocol implementation must preserve:
//  * VisibleTimestamp() is monotonic and always lands on a transaction
//    boundary: readers see a contiguous, untorn prefix of the primary's
//    log (monotonic prefix consistency, §2.3).
//  * Every read-only transaction runs inside an epoch guard and registers
//    its snapshot with the reader tracker before reading, so GcHorizon()
//    never reclaims a version an active reader could still observe.
//  * An applying thread holds an ApplyTally::Unit (its epoch guard) per unit
//    of work, never across a blocking or idle wait: a guard held for a
//    thread's life pins every retired version, and nothing is ever freed;
//    a count held across a wait hides applied work from stats().
//  * ApplyRecord is idempotent: at-least-once log delivery (checkpoint
//    resume, source restart) must not install duplicate versions or skew
//    the applied-write/transaction counters used for caught-up accounting.
//  * After SetRecoveryWindow, no snapshot inside the window is ever
//    published: a restarted replica's readers can never observe the
//    non-prefix states left by a dead incarnation's run-ahead writes.
//
// The read surface (point get, multi-get, ordered scan) is c5::Snapshot
// (api/snapshot.h), an RAII handle combining the epoch guard, reader
// registration, and the pinned visible timestamp.

#ifndef C5_REPLICA_REPLICA_H_
#define C5_REPLICA_REPLICA_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/event_count.h"
#include "common/flat_map.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "common/types.h"
#include "log/segment_source.h"
#include "replica/lag_tracker.h"
#include "replica/prefix_tracker.h"
#include "storage/database.h"
#include "txn/active_txn_tracker.h"

namespace c5 {
class Snapshot;  // api/snapshot.h
}  // namespace c5

namespace c5::replica {

// Counters every cloned concurrency control protocol maintains, with the
// maintenance loop's GC passes (storage::GcStats).
struct ReplicaStats : storage::GcStats {
  std::atomic<std::uint64_t> applied_writes{0};
  std::atomic<std::uint64_t> applied_txns{0};
  std::atomic<std::uint64_t> deferred_writes{0};  // C5: prev-ts misses
  std::atomic<std::uint64_t> snapshots_taken{0};
  // Delivered segments handed back to the source (ReplicaBase::NextSegment).
  std::atomic<std::uint64_t> released_segments{0};
};

// The one replica configuration. Every protocol constructor takes it and
// core::MakeReplica passes it through unchanged; each protocol reads the
// fields it uses.
struct ProtocolOptions {
  // WorkerLoop threads. A protocol with workers applies out of log order,
  // so it also gets the visibility loop. Single-threaded replay and Query
  // Fresh run none and publish visibility from their scheduler thread.
  int num_workers = 4;
  // The shortest gap between visibility-loop passes, a cap on the publish
  // rate (an idle loop parks until new work is applied); for C5-MyRocks, the
  // snapshot frequency I (§5.2).
  std::chrono::microseconds snapshot_interval{200};
  // C5-MyRocks: simulated cost of taking a RocksDB snapshot while writers
  // are blocked (§5.2).
  std::chrono::microseconds snapshot_cost{0};
  // With workers: collect garbage at GcHorizon() on the maintenance thread
  // every gc_every x snapshot_interval (backing off while passes find
  // nothing new to truncate); 0 = never. A Cluster collects its primary at
  // the same cadence (and not at all with 0).
  int gc_every = 0;
  // C5 and C5-MyRocks: initial capacity of the scheduler's flat row ->
  // last-write-ts map. Pre-size it to the replayed log's row universe to
  // keep rehash stalls off the single scheduler thread.
  std::size_t scheduler_map_capacity = std::size_t{1} << 16;
};

// A cloned concurrency control protocol: consumes the primary's log and
// applies it to the backup database while serving monotonic-prefix-consistent
// read-only transactions. This class is the shared backup skeleton (see the
// file comment): thread lifecycle, visibility loop, caught-up wait and apply
// step, plus the visibility watermark, snapshot read surface, reader
// registration for GC horizons and the recovery visibility window.
//
// Lifecycle: construct -> Start(source) -> [primary runs / offline replay]
// -> WaitUntilCaughtUp() -> Stop(). Start spawns the protocol's threads;
// they exit once `source` returns nullptr and all writes are applied and
// visible.
class ReplicaBase {
 public:
  explicit ReplicaBase(storage::Database* db,
                       const ProtocolOptions& options = {})
      : db_(db),
        options_(options),
        prefix_(options.num_workers > 0
                    ? PrefixCapacity(options.snapshot_interval)
                    : 1),
        loads_(static_cast<std::size_t>(std::max(options.num_workers, 1))) {}
  virtual ~ReplicaBase() = default;
  ReplicaBase(const ReplicaBase&) = delete;
  ReplicaBase& operator=(const ReplicaBase&) = delete;

  virtual void Start(log::SegmentSource* source);

  // Blocks until the log is exhausted, every write is applied, and the
  // visibility watermark covers the whole log. Call before Stop().
  virtual void WaitUntilCaughtUp();

  // Joins all protocol threads. Idempotent.
  void Stop();

  virtual std::string name() const = 0;

  storage::Database& db() { return *db_; }
  ReplicaStats& stats() { return stats_; }

  // Largest commit timestamp the scheduler has fully scheduled (monotone).
  Timestamp watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  // ---- Stable identity ------------------------------------------------------
  // A deployment-stable id ("shard0/backup1") distinguishing THIS replica
  // instance from every other one in a multi-shard fleet. name() identifies
  // the protocol; instance_id() identifies the node, so logs and DST failure
  // output can attribute a divergence to one replica of one shard group.
  // Set once before Start (c5::BackupNode applies BackupOptions::id); not
  // synchronized against concurrent use.
  void SetInstanceId(std::string id) { instance_id_ = std::move(id); }
  const std::string& instance_id() const { return instance_id_; }

  // Reports every published snapshot to `tracker` (null: none). Set once
  // before Start, like the instance id (c5::BackupNode applies
  // BackupOptions::lag).
  void SetLagTracker(LagTracker* tracker) { tracker_ = tracker; }

  // "instance_id(protocol)" when an id was assigned, else the protocol name.
  std::string DisplayName() const {
    return instance_id_.empty() ? name() : instance_id_ + "(" + name() + ")";
  }

  // MPC read point: read-only transactions reading at this timestamp
  // observe a state that (a) reflects a contiguous prefix of the primary's
  // log and (b) only advances (§2.3).
  Timestamp VisibleTimestamp() const {
    return visible_ts_.load(std::memory_order_acquire);
  }

  // Externally advances the visibility watermark to `ts`. For readers whose
  // protocol threads are STOPPED but whose database keeps moving under an
  // outside writer — the promoted-primary case: after failover the node's
  // engine commits new transactions into this very database, and the frozen
  // watermark would pin every snapshot at the pre-promotion state. The
  // caller owns the §2.3 obligation the protocol normally discharges: `ts`
  // must be a settled prefix point (no transaction at or below it can still
  // commit, e.g. min(clock.Latest(), LogHorizon() - 1)). Monotonic and
  // recovery-window-safe like every internal publish; calls with a stale
  // `ts` are no-ops.
  void AdvanceVisibleTo(Timestamp ts) { PublishVisible(ts); }

  // Apply-latency sampling: each applying thread times every
  // kApplySampleEvery-th record through its own ApplyTally, which merges
  // here when the thread's loop returns; benches read the merged snapshot
  // after WaitUntilCaughtUp. Query Fresh's lazy reads are not sampled.
  static constexpr std::uint64_t kApplySampleEvery = 64;

  Histogram ApplyLatencySnapshot() const {
    MutexLock lock(apply_latency_mu_);
    return apply_latency_;
  }

  // One applying thread's load, for the fleet-model scaling methodology
  // (BENCH_replay.json worker_scaling): the records it applied and its
  // thread-CPU nanoseconds inside units of apply work, so neither its idle
  // waits nor peers co-scheduled on a small host are charged to it.
  struct WorkerLoad {
    std::uint64_t applied_records = 0;
    std::uint64_t cpu_ns = 0;
  };

  // Index-aligned with the worker ids; a protocol without workers reports
  // its scheduler thread as entry 0. Flushed once per ApplyTally::Unit.
  std::vector<WorkerLoad> WorkerLoads() const;

  // ---- Read surface ---------------------------------------------------------

  // Opens a read snapshot at the current visible timestamp: an RAII handle
  // holding the epoch guard and the reader registration (GcHorizon respects
  // it) and offering Get / MultiGet / Scan. Thread-safe; any number of
  // snapshots may be open concurrently ("read-only transactions are executed
  // by a separate set of threads", §4). Defined in api/snapshot.h.
  c5::Snapshot OpenSnapshot();

  // Safe GC horizon for the backup: nothing at or below min(active reader
  // snapshots, current snapshot) may lose its newest-committed-below version.
  //
  // The visible timestamp is read BEFORE the readers, both seq_cst, racing a
  // Snapshot that registers (seq_cst store) and then loads the visible
  // timestamp (seq_cst). If the reader scan misses a registration, the
  // registration follows the scan in the single total order, so the
  // reader's load follows ours and pins a snapshot at or above `visible`,
  // above the horizon. Read the other way round, a publish landing between
  // the two loads lifts the horizon over a registered reader that has not
  // yet pinned its timestamp.
  Timestamp GcHorizon() const {
    const Timestamp visible = visible_ts_.load(std::memory_order_seq_cst);
    const Timestamp readers = readers_.MinActive();
    const Timestamp bound = readers == kMaxTimestamp
                                ? visible
                                : std::min(readers, visible);
    return bound == 0 ? 0 : bound - 1;
  }

  // ---- Recovery visibility window -------------------------------------------

  // Arms the recovery visibility window of a replica restarting on top of
  // surviving state (in-place restart or checkpoint restore). `resume_ts` is
  // the dead incarnation's last published snapshot (its visibility
  // checkpoint) — a prefix-consistent point, published immediately so
  // readers resume there instead of at zero. `inherited_max` is the largest
  // committed timestamp anywhere in the inherited database
  // (storage::Database::MaxCommittedTimestamp()): the dead incarnation's
  // workers may have run ahead of resume_ts, and redelivery's idempotence
  // guard skips those rows' intermediate versions, so states strictly inside
  // (resume_ts, inherited_max) are not prefix-consistent. PublishVisible
  // suppresses every snapshot below inherited_max, so no reader can ever
  // observe the window; it closes when the re-applied watermark covers
  // inherited_max. Call before Start().
  void SetRecoveryWindow(Timestamp resume_ts, Timestamp inherited_max) {
    recovery_resume_.store(resume_ts, std::memory_order_release);
    recovery_floor_.store(std::max(resume_ts, inherited_max),
                          std::memory_order_release);
    Timestamp cur = visible_ts_.load(std::memory_order_relaxed);
    while (cur < resume_ts && !visible_ts_.compare_exchange_weak(
                                  cur, resume_ts, std::memory_order_acq_rel)) {
    }
  }

  // The window's bounds: (resume, floor]. Both zero when never armed.
  Timestamp RecoveryResume() const {
    return recovery_resume_.load(std::memory_order_acquire);
  }
  Timestamp RecoveryFloor() const {
    return recovery_floor_.load(std::memory_order_acquire);
  }

  // True once the published snapshot covers the inherited high-water mark
  // (trivially true when no window was armed). WaitUntilCaughtUp() implies
  // this as long as the resumed log extends past the inherited state —
  // which at-least-once redelivery guarantees.
  bool RecoveryWindowClosed() const {
    return VisibleTimestamp() >= RecoveryFloor();
  }

 protected:
  // The options of a protocol that runs no worker threads (serial replay,
  // lazy ingest): it publishes visibility from its scheduler thread, so it
  // gets no visibility or maintenance loop either.
  static ProtocolOptions WithoutWorkers(ProtocolOptions options) {
    options.num_workers = 0;
    return options;
  }

  // ---- Protocol hooks -------------------------------------------------------

  // One delivered segment's scheduling step, on the scheduler thread: hands
  // its work to the workers (or, without workers, applies or indexes it).
  // The segment loop raises watermark() to the segment's last timestamp
  // right after it returns, so every record must be handed off by then.
  virtual void Schedule(log::LogSegment& seg) = 0;

  // Worker `idx`'s body; returns when its queue is closed and drained.
  virtual void WorkerLoop(int idx) { (void)idx; }

  // The protocol's apply floor: a timestamp at or below which every write
  // is applied and no worker holds, or can still be handed, a record
  // pointer. The visibility loop publishes it every pass (the segment loop
  // after each segment, without workers), whether or not it moves the
  // visible snapshot, and NextSegment releases what it covers. It is NOT
  // VisibleTimestamp(): after a restart the recovery window publishes the
  // resume point at once, while workers still read redelivered segments
  // below it. With workers it is the marked prefix (see the file comment);
  // a protocol without workers overrides it.
  virtual Timestamp ApplyFloor() { return prefix_.Advance(); }

  // Advances the visible snapshot to `n`, which exceeds VisibleTimestamp().
  // C5-MyRocks wraps this in its §5.2 write barrier.
  virtual void PublishSnapshot(Timestamp n) {
    PublishVisible(n);
    stats_.snapshots_taken.fetch_add(1, std::memory_order_relaxed);
  }

  // Unblocks every worker waiting on a protocol queue, so Stop() can join
  // it; also called by the FinishWork that ends the work (see the file
  // comment). Idempotent.
  virtual void CloseQueues() {}

  // ---- End of log -----------------------------------------------------------

  // Adds `n` units of outstanding work. Call before handing them to a
  // worker, so no finish can run ahead of its add.
  void AddWork(std::uint64_t n) {
    outstanding_.fetch_add(n, std::memory_order_acq_rel);
  }

  // Retires `n` units; the decrement that reaches 0 calls CloseQueues().
  void FinishWork(std::uint64_t n) {
    if (n != 0 && outstanding_.fetch_sub(n, std::memory_order_acq_rel) == n) {
      CloseQueues();
    }
  }

  // True once Stop() has begun: a scheduler wait gives up.
  bool stopping() const { return shutdown_.load(std::memory_order_acquire); }

  // Scheduler thread: waits until prefix_ has room for every index below
  // `end`, having handed out every unit numbered so far; false after Stop().
  // Parks until a visibility pass advances the prefix.
  bool AwaitPrefixRoom(std::uint64_t end);

  // ---- Scheduler preprocessing ----------------------------------------------

  // A row's scheduler name: unique across tables.
  static std::uint64_t RowName(TableId table, RowId row) {
    return (static_cast<std::uint64_t>(table) << 56) | row;
  }

  // Embeds the per-row FIFO queues in the log (§7.2): sets rec.prev_ts to
  // the timestamp of the previous write to its row and records this write
  // in `last_write_ts`. Returns the row's name.
  //
  // Monotone, never rewound: an at-least-once redelivery of an old segment
  // would otherwise reset the row's chain position, and the NEXT new write
  // would be scheduled against the stale predecessor — it can then install
  // before the true predecessor, whose record the idempotence guard
  // subsequently skips, leaving a permanent hole in the row's history. A
  // redelivered record itself gets prev_ts >= its own timestamp, which
  // resolves as kAlreadyApplied once the row catches up. (Found by the DST
  // stale-duplicate schedule.)
  static std::uint64_t StampPrevTs(FlatMap<Timestamp>& last_write_ts,
                                   log::LogRecord& rec) {
    const std::uint64_t name = RowName(rec.table, rec.row);
    Timestamp& last = last_write_ts[name];
    rec.prev_ts = last;
    if (rec.commit_ts > last) last = rec.commit_ts;
    return name;
  }

  // ---- Apply step -----------------------------------------------------------

  // One WorkerLoads() entry, written by its thread's ApplyTally.
  struct LoadSlot {
    alignas(64) std::atomic<std::uint64_t> applied_records{0};
    std::atomic<std::uint64_t> cpu_ns{0};
  };

  // One applying thread's bookkeeping: its applied writes, transactions and
  // deferrals, every kApplySampleEvery-th apply latency and its WorkerLoads()
  // entry. Counts flush into stats() and the load slot when a Unit ends; the
  // samples merge into ApplyLatencySnapshot() on MergeSamples() or
  // destruction, one of which must happen before the thread's loop returns.
  class ApplyTally {
   public:
    // One unit of apply work (a C5 batch, a C5-MyRocks window iteration, a
    // KuaFu transaction, a granularity handoff batch, a serial segment): the
    // thread's epoch guard and CPU timer; its end flushes the tally. Never
    // held across a wait, so a waiting thread pins no version and hides no
    // count.
    class Unit {
     public:
      explicit Unit(ApplyTally& tally)
          : tally_(tally),
            guard_(&tally.replica_->db_->epochs()),
            cpu0_(ThreadCpuNowNanos()) {}
      ~Unit() { tally_.Flush(ThreadCpuNowNanos() - cpu0_); }

     private:
      ApplyTally& tally_;
      storage::EpochManager::Guard guard_;
      std::int64_t cpu0_;
    };

    // `slot`: the thread's WorkerLoads() index.
    ApplyTally(ReplicaBase* replica, int slot)
        : replica_(replica), load_(replica->loads_[slot]) {}
    ~ApplyTally() { MergeSamples(); }

    // The start time of every kApplySampleEvery-th record (-1 for the
    // rest); EndSample records the sample.
    std::int64_t StartSample() {
      return (tick_++ & (kApplySampleEvery - 1)) == 0 ? MonotonicNowNanos()
                                                      : -1;
    }
    void EndSample(std::int64_t t0) {
      if (t0 >= 0) {
        hist_.Record(static_cast<std::uint64_t>(MonotonicNowNanos() - t0));
      }
    }
    void CountApplied(const log::LogRecord& rec) {
      ++writes_;
      if (rec.last_in_txn) ++txns_;
    }
    void CountDeferred() { ++deferred_; }
    void MergeSamples() {
      MutexLock lock(replica_->apply_latency_mu_);
      replica_->apply_latency_.Merge(hist_);
      hist_.Reset();
    }

   private:
    void Flush(std::int64_t cpu_ns);

    ReplicaBase* replica_;
    LoadSlot& load_;
    Histogram hist_;
    std::uint64_t tick_ = 0;
    // This Unit's counts.
    std::uint64_t writes_ = 0;
    std::uint64_t txns_ = 0;
    std::uint64_t deferred_ = 0;
  };

  // Creates `rec`'s row slot and binds key -> row for every record that may
  // CREATE the row, not just kInsert. A row's first logged record can carry
  // any op: a transaction that inserts and deletes the same key coalesces
  // to a single kDelete, and an ABORTED insert leaves the key in the
  // primary's index so a later committed write ships as plain kUpdate.
  // Binding updates only when the row has no committed state keeps the hot
  // path (updates to existing rows) free of index writes. (Found by the DST
  // logical-snapshot oracle.) The binding is timestamp-aware: when a key's
  // row id changes (delete + re-insert allocates a fresh row), parallel
  // application of the old-row and new-row creating records must converge
  // to the newest row, whatever order they land in. Idempotent.
  //
  // Returns the row's newest committed timestamp, probed once for both the
  // binding decision and the caller's idempotence guard.
  Timestamp EnsureRowBound(const log::LogRecord& rec) {
    storage::Table& table = db_->table(rec.table);
    table.EnsureRow(rec.row);
    const Timestamp newest = table.NewestVisibleTimestamp(rec.row);
    if (rec.op != OpType::kUpdate || newest == kInvalidTimestamp) {
      db_->BindIfNewer(rec.table, rec.key, rec.row, rec.commit_ts);
    }
    return newest;
  }

  // Applies one log record to the backup database, installing a committed
  // version with the record's commit timestamp. The caller guarantees
  // per-row ordering, so the row's newest timestamp cannot change between
  // the probe and the install. Idempotent: a record whose row already
  // carries a version at or above its commit timestamp was applied by a
  // previous incarnation of this replica (at-least-once log delivery,
  // checkpoint resume) and is skipped — but still counted, so caught-up
  // accounting holds.
  void ApplyRecord(const log::LogRecord& rec, ApplyTally& tally) {
    const std::int64_t t0 = tally.StartSample();
    if (EnsureRowBound(rec) < rec.commit_ts) {
      db_->table(rec.table).InstallCommitted(rec.row, rec.commit_ts,
                                             rec.value,
                                             rec.op == OpType::kDelete);
    }
    tally.CountApplied(rec);
    tally.EndSample(t0);
  }

  // The §7.2 rule: applies `rec` once its row's newest version is its
  // predecessor (rec.prev_ts, see StampPrevTs) and returns true, ending the
  // latency sample `t0`; returns false, changing nothing, while the
  // predecessor is not in place. A row already past `rec` (at-least-once
  // delivery, checkpoint resume) counts it applied, so caught-up accounting
  // holds. The caller has bound the row (EnsureRowBound). TryInstallIfPrev
  // reads the row with a plain load before any CAS, so polling this never
  // ping-pongs the row's cache line against the predecessor's install.
  bool TryApplyAfterPrev(const log::LogRecord& rec, ApplyTally& tally,
                         std::int64_t t0) {
    if (db_->table(rec.table).TryInstallIfPrev(
            rec.row, rec.prev_ts, rec.commit_ts, rec.value,
            rec.op == OpType::kDelete) == storage::PrevInstall::kNotReady) {
      return false;
    }
    tally.CountApplied(rec);
    tally.EndSample(t0);
    return true;
  }

  // The scheduler thread's tally, load slot 0: a protocol without workers
  // applies through it. The segment loop merges its samples at end of log.
  ApplyTally& scheduler_tally() { return scheduler_tally_; }

  // Lazy-protocol hook, called by the Snapshot read paths with the resolved
  // row before its version chain is read. Query Fresh (§9) materializes the
  // row's pending redo list here; eager protocols inherit the no-op. The
  // caller holds an epoch guard (the Snapshot's).
  virtual void PrepareRowRead(TableId table, RowId row, Timestamp ts) {
    (void)table;
    (void)row;
    (void)ts;
  }

  void PublishVisible(Timestamp ts) {
    // Recovery window: snapshots strictly inside (resume, floor) would
    // expose the dead incarnation's non-prefix run-ahead states; hold the
    // published snapshot at the resume point until the re-applied watermark
    // covers the inherited high-water mark.
    if (ts < recovery_floor_.load(std::memory_order_acquire)) return;
    // seq_cst, so each publish takes its place in the total order GcHorizon
    // relies on.
    Timestamp cur = visible_ts_.load(std::memory_order_relaxed);
    while (cur < ts && !visible_ts_.compare_exchange_weak(
                           cur, ts, std::memory_order_seq_cst)) {
    }
  }

  friend class ::c5::Snapshot;

  // prefix_'s capacity: one snapshot_interval's marks (only Advance() frees
  // room) at 128M marks/s, ten times the fastest marking replay measured
  // (page granularity, 12.2M writes/s, 4 workers on 4 vCPUs). The floor,
  // 576 KiB, rides out a descheduled visibility thread; the ceiling 9 MiB.
  static constexpr std::size_t kPrefixMarksPerMicrosecond = 128;
  static constexpr std::size_t kMinPrefixCapacity = std::size_t{1} << 16;
  static constexpr std::size_t kMaxPrefixCapacity = std::size_t{1} << 20;
  static std::size_t PrefixCapacity(std::chrono::microseconds interval) {
    return std::clamp(static_cast<std::size_t>(interval.count()) *
                          kPrefixMarksPerMicrosecond,
                      kMinPrefixCapacity, kMaxPrefixCapacity);
  }

  storage::Database* db_;
  LagTracker* tracker_ = nullptr;  // SetLagTracker; may stay null
  const ProtocolOptions options_;
  ReplicaStats stats_;
  txn::ActiveTxnTracker readers_;
  std::atomic<Timestamp> visible_ts_{0};
  std::atomic<Timestamp> recovery_floor_{0};
  std::atomic<Timestamp> recovery_resume_{0};
  // Applied units of work (see the file comment); one slot without workers.
  PrefixTracker prefix_;

 private:
  // Scheduler done and every worker exited: no write is left to apply.
  bool Drained() const {
    return scheduler_done_.load(std::memory_order_acquire) &&
           workers_running_.load(std::memory_order_acquire) == 0;
  }

  // The scheduler thread's body: the segment loop, then the drop of the
  // scheduler's hold on the outstanding work.
  void SegmentLoop(log::SegmentSource* source);
  void VisibilityLoop();

  // Wakes every wait of this replica to re-check its condition: after
  // Stop() and once the work drains.
  void WakeAll() {
    prefix_.WakeAdvancer();
    published_.NotifyAll();
    db_->WakeMaintenance();
  }

  // Raises watermark() to `seg`'s last commit timestamp once the segment's
  // work is handed to the workers (transactions never span segments).
  // Monotone for the same reason as StampPrevTs: a redelivered old segment
  // as the FINAL delivery would otherwise pin the visible snapshot below
  // end-of-log forever. Scheduler thread only, so load+store suffices.
  void AdvanceWatermark(const log::LogSegment& seg);

  // The segment loop's Next(), which drives the release contract
  // (log/segment_source.h): before each Next(), hands back the delivered
  // prefix at or below the published ApplyFloor().
  //
  // Each delivered segment is keyed by its max timestamp, raised to one past
  // the previous key when it does not exceed it. A redelivered or
  // out-of-order segment therefore waits until the floor passes a later
  // segment's timestamps, which the scheduler publishes only after handing
  // the earlier segment's work to the workers. The floor never exceeds the
  // scheduler's watermark, so a floor computed before a segment arrived
  // stays below that segment's key.
  log::LogSegment* NextSegment(log::SegmentSource* source);

  // watermark(): written by the segment loop (AdvanceWatermark), read by
  // the visibility loop and WaitUntilCaughtUp.
  alignas(64) std::atomic<Timestamp> watermark_{0};
  // Set while the segment loop schedules a segment: units may be numbered
  // that the visibility loop's floor does not cover yet.
  std::atomic<bool> scheduling_{false};
  // Notified by every visibility pass, the end of the work and Stop():
  // AwaitPrefixRoom, WaitUntilCaughtUp and the visibility loop's pacing.
  EventCount published_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> scheduler_done_{false};
  std::atomic<int> workers_running_{0};
  std::atomic<bool> visibility_done_{false};
  // Added but unfinished work, plus the scheduler's hold until end of log,
  // so the count reaches 0 exactly once (AddWork, FinishWork).
  std::atomic<std::uint64_t> outstanding_{1};

  // NextSegment's delivered-but-unreleased segments, in delivery order
  // (scheduler thread only).
  struct InUse {
    std::uint64_t base_seq;
    std::uint64_t end_seq;
    Timestamp key;
  };
  std::deque<InUse> in_use_;
  Timestamp last_key_ = 0;
  std::uint64_t released_end_ = 0;
  std::atomic<Timestamp> apply_floor_{0};

  std::vector<LoadSlot> loads_;  // WorkerLoads()
  mutable Mutex apply_latency_mu_{LockRank::kStats};
  Histogram apply_latency_ C5_GUARDED_BY(apply_latency_mu_);
  // Declared after the slots and the histogram it writes into.
  ApplyTally scheduler_tally_{this, 0};
  std::string instance_id_;
};

}  // namespace c5::replica

#endif  // C5_REPLICA_REPLICA_H_
