// c5::ShardedCluster — N independent shard groups behind one façade.
//
// The paper's deployment model (§2) is ONE primary whose log feeds a backup
// fleet; this is that design multiplied: the keyspace is hash-partitioned
// across `num_shards` fully independent replication groups — each a complete
// c5::Cluster (primary engine + per-backup tee'd log shipping + backup fleet
// + failover) — and a ShardRouter (common/shard_router.h) is the single
// source of truth for which group owns a key. Nothing is shared between
// groups: no lock, no log stream, no clock, so aggregate apply throughput
// scales with the number of groups (bench/shard_scaling.cc) and one shard's
// failover never stalls another shard's reads or writes.
//
//   ShardedClusterOptions options;
//   options.WithShards(4).shard.WithBackups(2).WithWorkers(2);
//   ShardedCluster fleet(options);
//   TableId t = fleet.CreateTable("accounts");
//   fleet.Start();
//   Timestamp commit;
//   fleet.ExecuteWithRetry(t, /*routing_key=*/k,
//                          [&](txn::Txn& txn) { return txn.Put(t, k, "v"); },
//                          &commit);
//   auto session = fleet.OpenSession();
//   session.OnWrite(t, k, commit);
//   Value v;
//   session.Read(t, k, &v);                  // read-your-writes, any shard
//   std::vector<std::pair<Key, Value>> rows;
//   fleet.Scan(t, 0, 1000, &rows);           // cross-shard, merged ascending
//   fleet.Shutdown();
//
// Consistency contract:
//  * A read-write transaction executes on exactly ONE shard group — the one
//    `routing_key` routes to — and its TxnFn must touch only keys routing
//    there, plus any tables the router marks UNPARTITIONED (replicated
//    catalogs and shard-local append streams — e.g. TPC-C's ITEM and
//    HISTORY — may be read/written from any shard's transactions).
//    VerifyPlacement() audits the partitioned tables; the DST router oracle
//    enforces the invariant under fault injection. Cross-shard
//    transactional writes are NOT provided: there is no cross-shard commit
//    protocol, by design — this seam is what later rebalancing /
//    cross-shard-txn PRs build on.
//  * Scatter-gather reads (MultiGet / Scan) open one Snapshot PER SHARD,
//    each pinned at that shard's visible timestamp. Every per-shard slice is
//    monotonic-prefix-consistent; the combined result is NOT a single global
//    snapshot (shards advance independently). Sessions restore the two §2.3
//    session guarantees across shards by carrying one causality token per
//    shard.
//  * Ordered scans k-way merge the per-shard slices; shards own disjoint
//    keys, so the merge is exact and ascending.

#ifndef C5_API_SHARDED_CLUSTER_H_
#define C5_API_SHARDED_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/cluster.h"
#include "common/mutex.h"
#include "common/shard_router.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"

namespace c5 {

// What one Rebalance did (for tests, benches, and operators).
struct MigrationReport {
  ShardRouter::Epoch epoch = 0;    // the epoch the cutover installed
  std::size_t rows_copied = 0;     // bulk-copied in the snapshot phase
  std::size_t tail_records = 0;    // caught up from the source log tail
  std::size_t rows_deleted = 0;    // source residue tombstoned at cutover
};

// Test seams for Rebalance. `after_copy` runs after the bulk copy and before
// the cutover fence — the window where a mid-migration source failover must
// not lose tail records (the promoted primary re-attaches the migration tap:
// ha::PromoteToPrimary's extra_sink).
struct RebalanceHooks {
  std::function<void()> after_copy;
};

struct ShardedClusterOptions {
  std::size_t num_shards = 2;

  // Perturbs the router's placement hash (ShardRouter seed).
  std::uint64_t router_seed = 0;

  // Stable fleet naming: groups are "<id_prefix><i>", backups inherit
  // "<id_prefix><i>/backup<j>" (surfaced in logs and DST failure output).
  std::string id_prefix = "shard";

  // Per-group template; every shard group is built from it (its `id` is
  // overridden with the group name).
  ClusterOptions shard{};

  ShardedClusterOptions& WithShards(std::size_t n) {
    num_shards = n;
    return *this;
  }
  ShardedClusterOptions& WithRouterSeed(std::uint64_t seed) {
    router_seed = seed;
    return *this;
  }
  ShardedClusterOptions& WithIdPrefix(std::string prefix) {
    id_prefix = std::move(prefix);
    return *this;
  }
  ShardedClusterOptions& WithShardOptions(ClusterOptions o) {
    shard = std::move(o);
    return *this;
  }
};

class ShardedCluster {
 public:
  explicit ShardedCluster(ShardedClusterOptions options = {});
  ~ShardedCluster();

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  // Schema setup on every shard group (table ids match across shards by
  // creation order). `partition`, when given, registers the table's
  // partition-token extractor with the router (table-aware routing: e.g.
  // TPC-C keys route by the warehouse id they encode —
  // workload::tpcc::ConfigureShardRouter registers the whole schema at
  // once through router()). Call before Start.
  TableId CreateTable(std::string name,
                      ShardRouter::PartitionFn partition = nullptr);

  void Start();

  // ---- Topology -------------------------------------------------------------
  std::size_t num_shards() const { return shards_.size(); }
  Cluster& shard(std::size_t i) { return *shards_[i]; }
  ShardRouter& router() { return router_; }
  const ShardRouter& router() const { return router_; }
  std::size_t ShardOf(TableId table, Key key) const {
    return router_.ShardOf(table, key);
  }

  // ---- Write path -----------------------------------------------------------
  // Routes one read-write transaction to the shard owning (table,
  // routing_key). The TxnFn must confine itself to keys routing to that
  // shard (see the consistency contract above).
  Status Execute(TableId table, Key routing_key, const txn::TxnFn& fn,
                 Timestamp* commit_ts = nullptr);
  Status ExecuteWithRetry(TableId table, Key routing_key, const txn::TxnFn& fn,
                          Timestamp* commit_ts = nullptr);
  // Escape hatch for callers that resolved the shard themselves (e.g. a
  // TPC-C driver pinning each warehouse's clients to its shard).
  Status ExecuteOnShard(std::size_t shard_index, const txn::TxnFn& fn,
                        Timestamp* commit_ts = nullptr);
  Status ExecuteOnShardWithRetry(std::size_t shard_index, const txn::TxnFn& fn,
                                 Timestamp* commit_ts = nullptr);
  // Ships open partial segments on every shard.
  void Flush();

  // ---- Read path (scatter-gather over per-shard snapshots) ------------------
  // Point read on the owning shard's backup, at that shard's visible
  // timestamp. kNotFound for keys absent (or deleted) at the snapshot. For
  // UNPARTITIONED tables (ShardRouter::MarkUnpartitioned) a miss on the
  // hash-routed shard probes the remaining shards — a replicated catalog
  // hits on the first probe, a shard-local stream wherever its writer
  // lives; kNotFound means absent on EVERY shard.
  Status Get(TableId table, Key key, Value* out);

  // Batch read: keys are grouped by owning shard, each group is read on ONE
  // per-shard Snapshot, and results return in the caller's key order.
  // statuses[i] is kNotFound for keys absent at their shard's snapshot.
  // Unpartitioned tables degrade to per-key probing Gets (no
  // single-snapshot guarantee — no one shard's snapshot covers them).
  std::vector<Status> MultiGet(TableId table, const std::vector<Key>& keys,
                               std::vector<Value>* out);

  // Ordered range read over [lo, hi): clears *out, collects every shard's
  // slice at its own pinned snapshot, and k-way merges (shards own disjoint
  // keys, so the result is exact and strictly ascending). Unpartitioned
  // tables return kInvalidArgument — their keys are not disjoint across
  // shards, so no exact merge exists; scan each shard(i) directly.
  Status Scan(TableId table, Key lo, Key hi,
              std::vector<std::pair<Key, Value>>* out);

  // Cross-shard aggregation pushdown over [lo, hi): each shard evaluates
  // the aggregate inside its own index walk at its own pinned snapshot
  // (restricted to the keys it owns, so a mid-migration copy window never
  // double-counts), and the partials merge losslessly (AggResult::Merge).
  // Same unpartitioned-table restriction as Scan.
  Status Aggregate(TableId table, Key lo, Key hi, const AggSpec& spec,
                   AggResult* out);

  // ---- Sessions -------------------------------------------------------------
  // The §2.3 session guarantees (monotonic reads, read-your-writes) across
  // the whole fleet, one causality token PER SHARD: a write on shard s only
  // constrains future reads that route to s, so a laggard shard never
  // stalls reads of the others. Single-client objects; must not outlive the
  // ShardedCluster.
  class Session {
   public:
    Session(Session&&) = default;
    Session& operator=(Session&&) = default;

    // Records a write committed through Execute on (table, key)'s shard.
    // Routes the token by the key's hash shard — correct for every write
    // issued through Execute(table, routing_key, ...). A write to an
    // UNPARTITIONED table issued via ExecuteOnShard may have executed on a
    // different shard; use OnWriteToShard for those, or read-your-writes
    // does not cover the row.
    void OnWrite(TableId table, Key key, Timestamp commit_ts);

    // Records a write committed on a specific shard (ExecuteOnShard*
    // callers — e.g. appends to a shard-local unpartitioned stream).
    // Tokens are per-shard timestamp domains: always pass the commit
    // timestamp to the shard that produced it, never across shards.
    void OnWriteToShard(std::size_t shard_index, Timestamp commit_ts);

    // Session-consistent reads; same routing/merging as the cluster-level
    // reads, but each per-shard read runs on that shard's ClientSession
    // (waits for a backup covering the shard's token).
    Status Read(TableId table, Key key, Value* out);
    std::vector<Status> MultiGet(TableId table, const std::vector<Key>& keys,
                                 std::vector<Value>* out);
    Status Scan(TableId table, Key lo, Key hi,
                std::vector<std::pair<Key, Value>>* out);

    // Shard s's causality token: no future read routed to s observes a
    // snapshot below it. Tokens are per shard — there is no meaningful
    // total order across shards' timestamps.
    Timestamp token(std::size_t shard_index) const;
    std::size_t num_shards() const { return sessions_.size(); }

   private:
    friend class ShardedCluster;
    explicit Session(ShardedCluster* owner);

    // Folds migration cutovers that happened since the last read into the
    // per-shard tokens: if this session ever wrote to a cutover's source
    // shard, its destination token is raised to the cutover's covering
    // timestamp, so reads of a moved partition still honor
    // read-your-writes/monotonic reads after the move. Conservative (it
    // does not track WHICH keys were written) but cheap and sufficient.
    void FoldTransitions();

    ShardedCluster* owner_;
    std::vector<std::unique_ptr<replica::ClientSession>> sessions_;
    std::size_t folded_ = 0;  // transitions already folded
  };

  Session OpenSession();

  // ---- Per-shard failure / failover ----------------------------------------
  // Each shard group fails over independently; the other shards keep
  // executing and serving throughout.
  Status StopPrimary(std::size_t shard_index);
  void WaitForBackups();  // all shards (implies StopPrimary on each)
  Status Promote(std::size_t shard_index, std::size_t backup_index);
  Status CatchUpSurvivors(std::size_t shard_index);

  // ---- Live resharding ------------------------------------------------------
  // Moves the plan's partition tokens from one source shard to one
  // destination shard while BOTH keep serving reads and routed writes:
  //
  //   1. attach a filtered tap to the source's commit stream (the catch-up
  //      tail; survives a source failover — Cluster::Promote re-tees it);
  //   2. settle a copy timestamp (wait until the source engine's log horizon
  //      passes it) and bulk-copy the moving rows to the destination;
  //   3. drain the tail onto the destination (per-key newest-wins by source
  //      commit timestamp, so any arrival order converges);
  //   4. cutover: fence the moving tokens (writers back off), take the
  //      source shard's gate exclusively (drains in-flight transactions),
  //      drain the final tail, tombstone the source residue, wait until the
  //      destination's backups cover everything migrated, then atomically
  //      bump the router epoch and drop the fence.
  //
  // Only the moving partitions ever block writes, and only for step 4's
  // brief window. All moves in one plan must share one source and one
  // destination shard (decompose multi-way plans into one call per edge).
  // The plan must validate against the current epoch
  // (ShardRouter::ValidatePlan). Not reentrant: one Rebalance at a time.
  //
  // Session tokens survive the cutover: a session that wrote to the source
  // shard has its destination token raised so post-cutover reads of the
  // moved partition still cover the write (read-your-writes across the
  // migration; docs/API.md "Resharding").
  Status Rebalance(const MigrationPlan& plan, MigrationReport* report = nullptr);
  Status Rebalance(const MigrationPlan& plan, MigrationReport* report,
                   const RebalanceHooks& hooks);

  // Drains and stops every shard group. Idempotent; the destructor calls it.
  void Shutdown();

  // ---- Diagnostics ----------------------------------------------------------
  // Audits the routing invariant: walks every shard's CURRENT primary's
  // indexes (the promoted node's after a failover) and reports each key of
  // a partitioned table that does NOT route to the shard it lives on at the
  // CURRENT epoch (empty = invariant holds; unpartitioned tables are
  // skipped). Epoch-aware: a moved-away key whose newest version on the old
  // owner is a TOMBSTONE is legal residue (Rebalance deletes, it does not
  // physically unlink — GC reclaims the chain later); a LIVE version on a
  // non-owner is a violation. Not meaningful mid-migration (the copy window
  // intentionally dual-hosts the moving keys); audit after Rebalance
  // returns. O(keys); for tests and integrity checks, not hot paths. The
  // DST harness runs the same oracle against backup state under fault
  // injection.
  std::vector<std::string> VerifyPlacement();

 private:
  // Per-shard migration gate. Routed writes and point reads hold it SHARED
  // for the duration of one transaction/read (with a route re-check after
  // acquisition); Rebalance's cutover holds it EXCLUSIVE, which drains
  // in-flight work and freezes the shard's routing for the brief cutover
  // window. cutover_pending diverts new shared acquirers while an exclusive
  // acquisition is waiting, so the cutover cannot be starved by a
  // continuous stream of readers.
  struct ShardGate {
    // kShardGate is the outermost rank: a routed transaction holds the gate
    // shared across its whole execution (engine, collector, storage locks
    // all nest underneath). Scatter-gather reads stack ALL gates shared at
    // equal rank (the lock-rank checker permits shared same-rank stacking).
    SharedMutex mu{LockRank::kShardGate};
    std::atomic<bool> cutover_pending{false};
  };

  // One completed cutover, as sessions need to see it (FoldTransitions).
  struct EpochTransition {
    std::size_t src = 0;
    std::size_t dst = 0;
    Timestamp dest_covering_ts = 0;  // dest-domain ts covering all moved data
  };

  // Acquires (table, key)'s owner gate in shared mode, re-checking the
  // route after acquisition and backing off while the key is fenced.
  // Returns the owning shard with the gate held.
  std::size_t AcquireRouted(TableId table, Key key,
                            std::shared_lock<SharedMutex>* lock) const;
  // All gates shared, in index order (scatter-gather reads: no cutover can
  // run concurrently, so the epoch is stable across the whole read).
  std::vector<std::shared_lock<SharedMutex>> AcquireAllShared() const;

  Status RoutedExecute(TableId table, Key routing_key, const txn::TxnFn& fn,
                       Timestamp* commit_ts, bool retry);

  std::vector<EpochTransition> TransitionsSince(std::size_t from) const;

  ShardedClusterOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Cluster>> shards_;
  std::vector<std::unique_ptr<ShardGate>> gates_;
  mutable SpinLock transitions_mu_{LockRank::kClusterState};
  std::vector<EpochTransition> transitions_ C5_GUARDED_BY(transitions_mu_);
  std::atomic<bool> rebalance_active_{false};
  bool started_ = false;
};

}  // namespace c5

#endif  // C5_API_SHARDED_CLUSTER_H_
