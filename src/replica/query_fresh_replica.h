#ifndef C5_REPLICA_QUERY_FRESH_REPLICA_H_
#define C5_REPLICA_QUERY_FRESH_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "replica/replica.h"

namespace c5::replica {

// Reimplementation of Query Fresh [Wang et al., VLDB'18], the only existing
// row-granularity cloned concurrency control protocol the paper discusses
// (§9). Query Fresh treats the shipped log itself as the database: the
// replay pipeline only *indexes* incoming log records, and read-only
// transaction threads lazily instantiate a row's versions from the log the
// first time a read touches the row.
//
// The paper's critique, which this implementation reproduces measurably:
//
//  * "This lazy instantiation is serialized for the entire read-only
//    transaction, which may add significant latency." Here each row's
//    pending redo list is drained under a per-row latch on the read path.
//  * "Read-only transaction threads optimistically update the database and
//    will abort if multiple threads try to update the same row
//    concurrently." Here a contended row latch counts an instantiation
//    conflict and the reader retries.
//  * "Query Fresh's lazy instantiation ... can cause arbitrarily large
//    replication lag even using single-key transactions": under the paper's
//    lazy-protocol lag definition (§2.4), f_b includes "the additional time
//    required to finish any deferred execution", so a hot row with a deep
//    pending redo list makes f_b grow with the backlog even though the
//    ingest watermark keeps up. bench/qf_lazy_lag measures exactly this.
//
// Structure:
//  * Ingest thread: consumes segments in log order; for every record it
//    ensures the backup row slot exists, upserts the key into the backup
//    index (Query Fresh builds indirection arrays eagerly), and appends the
//    record to the row's pending redo list. The visibility watermark
//    advances at transaction boundaries as soon as records are indexed —
//    ingest never executes writes, which is why Query Fresh "keeps up" on
//    ingest by construction.
//  * Read path: every Snapshot read resolves the key, then (through the
//    PrepareRowRead hook Snapshot materialization calls) drains the row's
//    pending redo list up to the snapshot timestamp — installing committed
//    versions in log order — before reading normally. Instantiation work is
//    charged to the reader.
//  * WaitUntilCaughtUp additionally drains every pending redo list so that
//    offline replays converge to the primary's exact state (used by the
//    convergence tests and by state digests). WaitUntilIndexed skips the
//    drain, so reads keep instantiating lazily.
class QueryFreshReplica : public ReplicaBase {
 public:
  // Runs no worker threads, whatever options.num_workers says.
  explicit QueryFreshReplica(storage::Database* db,
                             const ProtocolOptions& options = {});
  ~QueryFreshReplica() override { Stop(); }

  // Sizes the per-table row maps from the backup's schema, then starts the
  // ingest thread.
  void Start(log::SegmentSource* source) override;
  // WaitUntilIndexed(), then drains every pending redo list.
  void WaitUntilCaughtUp() override;
  // The shared caught-up wait alone: every record is indexed and visible,
  // and the pending redo lists stay in place for reads to instantiate. The
  // lazy-lag bench measures deferred-execution cost this way.
  void WaitUntilIndexed() { ReplicaBase::WaitUntilCaughtUp(); }
  std::string name() const override { return "query-fresh"; }

  // Instantiates (replays) all of `row`'s pending writes with commit
  // timestamps <= ts. Exposed so multi-key read-only transactions can
  // pre-instantiate their read sets. The caller must hold an epoch guard
  // for this database (an open c5::Snapshot holds one), as installs read the
  // row's version chain.
  void InstantiateRow(TableId table, RowId row, Timestamp ts);

  // Lazy-instantiation hook for the Snapshot read surface (replica.h).
  void PrepareRowRead(TableId table, RowId row, Timestamp ts) override;

  // Total log records indexed but not yet executed (the deferred backlog).
  std::uint64_t PendingBacklog() const {
    return backlog_.load(std::memory_order_acquire);
  }

  // Times a reader contended on a row latch during instantiation (the
  // optimistic-abort path the paper describes).
  std::uint64_t InstantiationConflicts() const {
    return instantiation_conflicts_.load(std::memory_order_relaxed);
  }

 private:
  // One pending (indexed but unexecuted) log record. Nodes are allocated
  // from a bump arena by the single ingest thread — the ingest path is the
  // protocol's "keeps up by construction" half, so it must not pay a malloc
  // per record.
  struct PendingNode {
    const log::LogRecord* rec = nullptr;
    PendingNode* next = nullptr;
  };

  // Ingest-thread-only bump allocator. Nodes live until the replica is
  // destroyed (consumed nodes are logically dead but cheap: 16 bytes each).
  class NodeArena {
   public:
    PendingNode* New() {
      if (used_ == kChunk) {
        chunks_.push_back(std::make_unique<PendingNode[]>(kChunk));
        used_ = 0;
      }
      return &chunks_.back()[used_++];
    }

   private:
    static constexpr std::size_t kChunk = std::size_t{1} << 16;
    std::vector<std::unique_ptr<PendingNode[]>> chunks_;
    std::size_t used_ = kChunk;
  };

  // Pending redo list for one row: an intrusive FIFO (oldest unapplied at
  // `head`). `mu` guards head/tail. Records are appended in log order by the
  // single ingest thread, so draining in order preserves per-row write order
  // (the row-granularity constraint of Theorem 2). `appended` / `applied`
  // mirror the list length so readers can skip fully-instantiated rows
  // without taking the latch.
  struct RowState {
    // kReplicaState, strictly below kStorage: InstantiateRow holds this
    // latch across Table::InstallCommitted (which may take the table's
    // grow lock and the version arena's locks underneath).
    SpinLock mu{LockRank::kReplicaState};
    PendingNode* head C5_GUARDED_BY(mu) = nullptr;
    PendingNode* tail C5_GUARDED_BY(mu) = nullptr;
    std::atomic<std::size_t> appended{0};
    std::atomic<std::size_t> applied{0};
  };

  // Per-table map of RowId -> RowState, laid out exactly like
  // storage::Table's row slots: chunks allocated on demand so states never
  // move (readers hold raw pointers) and ingest pays no per-row allocation.
  // Row ids are dense — the log dictates ids the primary allocated
  // sequentially — so an array beats a hash map here.
  class RowStateMap {
   public:
    RowStateMap();
    ~RowStateMap();

    RowStateMap(const RowStateMap&) = delete;
    RowStateMap& operator=(const RowStateMap&) = delete;

    // Ingest path: creates the chunk if needed.
    RowState* GetOrCreate(RowId row);
    // Reader path: nullptr if the chunk was never created (nothing pending).
    RowState* Find(RowId row) const;
    // Largest row id ever touched + 1 (for InstantiateAll sweeps).
    RowId MaxRow() const { return max_row_.load(std::memory_order_acquire); }

   private:
    static constexpr int kChunkBits = 16;
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
    static constexpr std::size_t kMaxChunks = std::size_t{1} << 15;

    struct Chunk {
      RowState rows[kChunkSize];
    };

    // chunks_ entries are written only under grow_mu_ but read lock-free
    // (publish-with-release), so they are atomics, not guarded data.
    std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
    std::atomic<RowId> max_row_{0};
    SpinLock grow_mu_{LockRank::kStorage};
  };

  // The ingest step: indexes the segment's records into pending redo lists.
  void Schedule(log::LogSegment& seg) override;
  // Nothing is ever released: the redo lists point into every delivered
  // record until a read instantiates it, so Query Fresh keeps the whole log
  // by design (§9: the log IS the database).
  Timestamp ApplyFloor() override { return kInvalidTimestamp; }

  // Drains every pending redo list up to `ts` (single caller thread).
  void InstantiateAll(Timestamp ts);

  // One RowStateMap per table; sized at Start() from the backup's schema.
  std::vector<std::unique_ptr<RowStateMap>> row_maps_;
  NodeArena arena_;  // ingest thread only

  std::atomic<std::uint64_t> backlog_{0};
  std::atomic<std::uint64_t> instantiation_conflicts_{0};
};

}  // namespace c5::replica

#endif  // C5_REPLICA_QUERY_FRESH_REPLICA_H_
