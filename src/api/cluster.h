// c5::Cluster — the embedded-server façade over the paper's deployment
// model (§2): ONE primary executing read-write transactions, its log
// shipped to a fleet of backups running cloned concurrency control, each
// serving monotonic-prefix-consistent reads, with checkpoint/restart and
// failover promotion behind the same object.
//
//   ClusterOptions options;
//   options.WithEngine(ha::EngineKind::kMvtso).WithBackups(2);
//   Cluster cluster(options);
//   TableId t = cluster.CreateTable("accounts");
//   cluster.Start();
//   Timestamp commit;
//   cluster.Execute([&](txn::Txn& txn) { return txn.Put(t, 1, "v"); },
//                   &commit);
//   auto session = cluster.OpenSession();
//   session.OnWrite(commit);
//   Value v;
//   session.Read(t, 1, &v);              // read-your-writes across backups
//   Snapshot snap = cluster.OpenSnapshot();
//   for (auto it = snap.Scan(t, 0, 100); it.Valid(); it.Next()) ...
//   cluster.Shutdown();
//
// Lifecycle:
//
//   CreateTable*  ->  Start  ->  Execute* / reads  ->  [StopPrimary]
//        ->  WaitForBackups  ->  [Promote -> Execute* -> CatchUpSurvivors]
//        ->  Shutdown
//
// Reads never block writes: every backup read runs on a Snapshot handle
// (api/snapshot.h) at the backup's visible timestamp; ClientSession
// (replica/session.h) adds the cross-backup session guarantees.
//
// BackupNode, the per-node half of the façade, is also usable standalone —
// a backup bound to an arbitrary log::SegmentSource — which is how the DST
// harness, recovery demos, and benches construct replicas without
// hand-wiring protocol internals.

#ifndef C5_API_CLUSTER_H_
#define C5_API_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/snapshot.h"
#include "common/clock.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "core/protocol_factory.h"
#include "ha/promotion.h"
#include "log/log_collector.h"
#include "log/segment_source.h"
#include "replica/lag_tracker.h"
#include "replica/session.h"
#include "storage/database.h"
#include "txn/txn.h"

namespace c5::net {
class ShipServer;
}  // namespace c5::net

namespace c5 {

// ---- BackupNode -------------------------------------------------------------

struct BackupOptions {
  core::ProtocolKind protocol = core::ProtocolKind::kC5;
  core::ProtocolOptions protocol_options{};
  replica::LagTracker* lag = nullptr;
  // Stable node id ("shard0/backup1"): set as the protocol's
  // ReplicaBase::instance_id() so logs and DST failure output can attribute
  // a divergence to this node across restarts (Restart builds a FRESH
  // ReplicaBase, but the id — identity of the node, not the incarnation —
  // survives). Empty: the protocol name stands in.
  std::string id;
};

// One backup: its database, the cloned concurrency control protocol
// replaying the log into it, the Snapshot read surface, and restart
// bookkeeping (the recovery visibility window is armed automatically).
class BackupNode {
 public:
  explicit BackupNode(BackupOptions options = {});
  ~BackupNode();

  BackupNode(const BackupNode&) = delete;
  BackupNode& operator=(const BackupNode&) = delete;

  // Schema setup; call before Start (table ids must mirror the primary's
  // creation order — the log addresses tables by id).
  TableId CreateTable(std::string name);

  // Rebuilds the database from a checkpoint file (storage/checkpoint.h).
  // Call after CreateTable and before the first Start; the node then reads
  // at the checkpoint timestamp immediately and resumes the log from there
  // (pair with ha::ResumeSegmentSource over the archived log).
  Status RestoreFromCheckpoint(const std::string& path);

  // The checkpoint timestamp loaded by RestoreFromCheckpoint (0: none).
  Timestamp restored_timestamp() const { return restored_ts_; }

  // Starts the protocol over `source` (which must outlive the node: lazy
  // protocols keep pointers into delivered segments).
  void Start(log::SegmentSource* source);

  // Crash recovery: builds a FRESH protocol instance over the surviving
  // database and resumes from `source` (redeliver at least everything above
  // VisibleTimestamp(); at-least-once overlap is discarded idempotently).
  // Arms the recovery visibility window: readers stay at the dead
  // incarnation's last published snapshot until the re-applied watermark
  // covers every run-ahead write it left behind, so the non-prefix states in
  // between are never observable (replica::ReplicaBase::SetRecoveryWindow).
  // Implies Stop() of the previous incarnation — and DESTROYS it: any
  // ReplicaBase* previously taken from reader() (e.g. in a BackupSet) is
  // dead and must be re-pointed at the new reader() (BackupSet::Assign;
  // Cluster::CatchUpSurvivors does this for its session fleet).
  void Restart(log::SegmentSource* source);

  void WaitUntilCaughtUp();
  void Stop();

  // The read surface. Snapshots must not outlive the node.
  Snapshot OpenSnapshot() { return reader().OpenSnapshot(); }
  Timestamp VisibleTimestamp() const;

  // Writes a checkpoint of the current visible snapshot to `path`.
  Status WriteCheckpoint(const std::string& path);

  // Promotes this caught-up, stopped node to primary (§9): a fresh engine
  // over the backup's database whose clock continues above every applied
  // commit. Implies Stop(). The node's read surface stays valid: reads see
  // the pre-promotion snapshot until the owner advances the watermark to a
  // settled point of the promoted engine (reader().AdvanceVisibleTo — which
  // is what Cluster::RefreshPromotedReader does for index-less reads), at
  // which point they see the promoted engine's writes too. `extra_sink`,
  // when non-null, also receives every commit the promoted engine logs
  // (a migration tap surviving failover — ha::PromoteToPrimary).
  std::unique_ptr<ha::PromotedPrimary> Promote(
      ha::EngineKind kind, log::LogCollector* extra_sink = nullptr);

  // The protocol instance. reader() and replica() are the same object.
  replica::ReplicaBase& reader() { return *replica_; }
  const replica::ReplicaBase& reader() const { return *replica_; }
  replica::ReplicaBase& replica() { return *replica_; }
  storage::Database& db() { return db_; }
  const BackupOptions& options() const { return options_; }

  // The node's stable id (BackupOptions::id, or the protocol name when none
  // was assigned). Survives Restart.
  std::string id() const;

 private:
  void MakeProtocol();

  BackupOptions options_;
  storage::Database db_;
  std::unique_ptr<replica::ReplicaBase> replica_;
  Timestamp restored_ts_ = 0;  // checkpoint restore point (0: none)
  bool started_ = false;
};

// ---- ClusterOptions ---------------------------------------------------------

// Builder-style options for Cluster. The per-backup replication knobs of
// core::ProtocolOptions are absorbed here; per-backup overrides (protocol
// kind, injected shipping delay, lag tracker) go through AddBackup.
struct ClusterOptions {
  // Primary concurrency control engine.
  ha::EngineKind engine = ha::EngineKind::kMvtso;

  // Stable group id. Each backup node inherits "<id>/backup<i>" as its own
  // id; ShardedCluster names its groups "shard<i>" so a fleet-wide failure
  // report pins the exact replica ("shard2/backup0").
  std::string id = "cluster";

  // Homogeneous fleet shorthand (ignored once AddBackup was called).
  std::size_t num_backups = 1;
  core::ProtocolKind backup_protocol = core::ProtocolKind::kC5;

  // Replication knobs applied to every backup.
  core::ProtocolOptions protocol{.num_workers = 2};

  // Log shipping: records per shipped segment, and how often the background
  // flusher closes a partial segment so lag excludes batching delay
  // (zero: no flusher thread; segments ship only when full or on Flush()).
  std::size_t segment_records = 1024;
  std::chrono::microseconds flush_interval{500};

  // Session defaults for OpenSession().
  replica::RoutingPolicy routing = replica::RoutingPolicy::kTokenRouted;
  std::chrono::milliseconds session_wait_timeout{0};

  // Real-socket transport: when >= 0, Start brings up a net::ShipServer on
  // 127.0.0.1:listen_port (0 = kernel-assigned ephemeral; read it back via
  // Cluster::server_port()) streaming the shard group's shipped log to any
  // subscriber — external c5 processes, or this cluster's own via_socket
  // backups. -1: in-process channels only (the default; also what the DST
  // runs under — the simulated channel and the real socket implement the
  // same SegmentSource contract).
  int listen_port = -1;

  // Per-backup spec for heterogeneous fleets.
  struct BackupSpec {
    core::ProtocolKind protocol = core::ProtocolKind::kC5;
    // Injected per-segment delivery delay (lag experiments: a congested
    // link, a distant region).
    std::chrono::microseconds ship_delay{0};
    replica::LagTracker* lag = nullptr;
    // Feed this backup through the ship server over real loopback TCP
    // instead of an in-process channel (implies a server even when
    // listen_port stays -1). The backup replays the same bytes through the
    // same protocol code — only the SegmentSource differs.
    bool via_socket = false;
  };
  std::vector<BackupSpec> backups;

  ClusterOptions& WithEngine(ha::EngineKind k) {
    engine = k;
    return *this;
  }
  ClusterOptions& WithId(std::string group_id) {
    id = std::move(group_id);
    return *this;
  }
  ClusterOptions& WithBackups(std::size_t n, core::ProtocolKind kind =
                                                 core::ProtocolKind::kC5) {
    num_backups = n;
    backup_protocol = kind;
    return *this;
  }
  ClusterOptions& AddBackup(BackupSpec spec) {
    backups.push_back(spec);
    return *this;
  }
  ClusterOptions& WithWorkers(int n) {
    protocol.num_workers = n;
    return *this;
  }
  ClusterOptions& WithSnapshotInterval(std::chrono::microseconds us) {
    protocol.snapshot_interval = us;
    return *this;
  }
  ClusterOptions& WithGcEvery(int n) {
    protocol.gc_every = n;
    return *this;
  }
  ClusterOptions& WithSegmentRecords(std::size_t n) {
    segment_records = n;
    return *this;
  }
  ClusterOptions& WithFlushInterval(std::chrono::microseconds us) {
    flush_interval = us;
    return *this;
  }
  ClusterOptions& WithRouting(replica::RoutingPolicy p) {
    routing = p;
    return *this;
  }
  ClusterOptions& WithSessionWaitTimeout(std::chrono::milliseconds ms) {
    session_wait_timeout = ms;
    return *this;
  }
  ClusterOptions& WithListenPort(int port) {
    listen_port = port;
    return *this;
  }
};

// ---- Cluster ----------------------------------------------------------------

// One row exported by Cluster::ExportRows: the key, its payload as of the
// export timestamp, and the version timestamp that wrote it (the migration
// bulk copy re-installs rows on the destination with fresh destination
// timestamps; version_ts is kept for audits).
struct ExportedRow {
  Key key = 0;
  Value value;
  Timestamp version_ts = 0;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Schema setup (primary + every backup). Call before Start.
  // The second parameter is ignored (indexes size themselves from what they
  // hold); it stays only so the frozen c5bench sources compile, and goes with
  // the next change to the benchmark.
  TableId CreateTable(std::string name, std::size_t /*ignored*/ = 0);

  // Brings the cluster up: primary engine, one shipping channel per backup,
  // backup protocol threads, background flusher.
  void Start();

  // ---- Write path (primary) ----
  // One attempt / retry-loop execution of a read-write transaction on the
  // current primary (the promoted node after Promote). On commit,
  // *commit_ts (optional) receives a timestamp covering the transaction's
  // writes — the committed transaction's own timestamp where the engine
  // exposes it (MVTSO), else a live upper bound (2PL's commit LSN clock) —
  // suitable for ClientSession::OnWrite. Meaningful for transactions that
  // WROTE: a read-only transaction's timestamp may lie above everything
  // logged, so don't feed it to OnWrite (there is nothing to read back).
  Status Execute(const txn::TxnFn& fn, Timestamp* commit_ts = nullptr);
  Status ExecuteWithRetry(const txn::TxnFn& fn, Timestamp* commit_ts = nullptr);

  // Ships any open partial segments now (the flusher also does this
  // periodically when flush_interval > 0).
  void Flush();

  // ---- Read path (backups) ----
  std::size_t num_backups() const { return nodes_.size(); }
  BackupNode& backup(std::size_t i) { return *nodes_[i]; }
  Snapshot OpenSnapshot(std::size_t backup_index) {
    return nodes_[backup_index]->OpenSnapshot();
  }
  // Index-less open routes through default_read_backup() and, when that is
  // the promoted node, first advances its reader to the promoted engine's
  // settled point — so a caller that does not pick a node reads current
  // data through every phase of a failover, including on a single-backup
  // fleet.
  Snapshot OpenSnapshot() {
    const std::size_t i = default_read_backup();
    if (promoted_ != nullptr && i == promoted_index_) RefreshPromotedReader();
    return nodes_[i]->OpenSnapshot();
  }
  // The backup a default (index-less) read should land on: backup 0, unless
  // that node was PROMOTED — a promoted node's reader no longer has a
  // protocol thread publishing its watermark, so reads prefer a surviving
  // backup, which CatchUpSurvivors keeps current. A single-backup fleet has
  // no survivor to prefer; there the promoted node itself serves, with
  // RefreshPromotedReader() re-pointing its watermark at the promoted
  // engine's settled commits (its engine writes into the same database and
  // maintains the index, so the snapshot surface sees them once the
  // watermark moves).
  std::size_t default_read_backup() const {
    if (promoted_ == nullptr || nodes_.size() < 2) return 0;
    return promoted_index_ == 0 ? 1 : 0;
  }
  // Publishes the promoted engine's settled read point — the largest
  // timestamp at or below which no transaction can still commit,
  // min(clock.Latest(), LogHorizon() - 1) — through the promoted node's
  // reader, un-pinning the pre-promotion snapshot its stopped protocol left
  // behind. No-op when nothing is promoted. Safe to call concurrently with
  // the promoted engine's writers (the watermark only moves to settled
  // points, so MPC holds).
  void RefreshPromotedReader();
  // A session with the §2.3 guarantees (monotonic reads, read-your-writes)
  // across the whole fleet. Sessions are single-client objects; they must
  // not outlive the Cluster.
  replica::ClientSession OpenSession();
  replica::ClientSession OpenSession(replica::ClientSession::Options options);
  const replica::BackupSet& backup_set() const { return set_; }

  // ---- Failure / failover ----
  // The primary "dies": shipping channels close after the in-flight tail.
  // Idempotent. Execute fails after this (until Promote installs a new
  // primary).
  void StopPrimary();

  // Drains every backup to the end of its delivered log (implies
  // StopPrimary — with a live primary there is no "end"). After this every
  // backup's visible snapshot covers everything shipped.
  void WaitForBackups();

  // Promotes backup `backup_index` to primary (§9): drains the fleet, stops
  // it, and installs a fresh engine over the chosen backup's database whose
  // commits extend the replicated history. Execute then routes to the
  // promoted engine. Surviving backups stay readable at their final
  // pre-failover snapshot until CatchUpSurvivors feeds them the new log.
  Status Promote(std::size_t backup_index);

  // Replays everything the promoted primary has committed so far onto the
  // surviving backups (their clones restart in place and the combined
  // old+new history becomes visible). Callable repeatedly; each call ships
  // the delta since the last.
  Status CatchUpSurvivors();

  // Index of the promoted backup, or num_backups() if none.
  std::size_t promoted_index() const { return promoted_index_; }

  // Drains and stops everything. Idempotent; the destructor calls it.
  void Shutdown();

  // ---- Migration surface (ShardedCluster::Rebalance) ----
  // Attaches `tap` as an additional sink of the primary's commit stream:
  // from now until DetachTap, every committed transaction's records are also
  // delivered to `tap` (a private copy — taps may mutate or buffer them).
  // Taps survive Promote (the promoted engine tees into them too). Cheap
  // when no tap is attached; safe to call while writers are running.
  void AttachTap(log::LogCollector* tap);
  void DetachTap(log::LogCollector* tap);

  // Snapshot export for migration bulk copy: every live (non-tombstoned)
  // row of `table` whose key satisfies `keep`, read as of `ts`, appended to
  // *out. Reads the CURRENT primary's database (the promoted node's after a
  // failover), so the export never serves from a stale backup. The caller
  // must first ensure ts is settled — every transaction at or below ts has
  // finished — by waiting for PrimaryLogHorizon() > ts; reads at a settled
  // timestamp see only resolved committed versions. Keys inserted
  // concurrently with the export may or may not be enumerated — that is
  // what the log tail (AttachTap) is for.
  Status ExportRows(TableId table, const std::function<bool(Key)>& keep,
                    Timestamp ts, std::vector<ExportedRow>* out);

  // Lower bound on every future commit timestamp of the current primary's
  // engine: once this exceeds ts, no transaction can ever commit at or
  // below ts. Monotonic under a fixed primary; re-based upward by Promote.
  Timestamp PrimaryLogHorizon() const;

  // Escape hatches for diagnostics and integration with lower layers.
  // ---- Socket transport surface ----
  // The shipping server, when one runs (listen_port >= 0 or any via_socket
  // backup); nullptr otherwise. Per-client shipping stats live here.
  net::ShipServer* ship_server();
  // The server's bound port (the ephemeral answer when listen_port was 0);
  // 0 when no server runs.
  std::uint16_t server_port() const;

  txn::Engine& engine();
  TxnClock& clock();
  storage::Database& primary_db() { return primary_db_; }
  // The database the CURRENT primary executes over: the original primary's,
  // or — after Promote — the promoted backup's (whose engine commits new
  // writes there). Audits of primary-side state must use this, or they miss
  // everything written after a failover.
  storage::Database& current_primary_db() {
    return promoted_ != nullptr ? nodes_[promoted_index_]->db() : primary_db_;
  }
  const ClusterOptions& options() const { return options_; }

 private:
  struct Shipping;  // ONE sequencer + a per-backup lane of source chains

  // The dynamic half of the primary's commit fan-out: a LogCollector that
  // forwards to whatever taps are currently attached (usually none). Commits
  // arrive as borrowed spans; each tap copies what it keeps.
  class TapSet : public log::LogCollector {
   public:
    void LogCommit(log::RecordSpan records) override;
    void Attach(log::LogCollector* tap);
    void Detach(log::LogCollector* tap);

   private:
    // Held while forwarding to the taps (a tap may take its own collector
    // lock underneath: kClusterState < kCollector).
    mutable SpinLock lock_{LockRank::kClusterState};
    std::vector<log::LogCollector*> taps_ C5_GUARDED_BY(lock_);
  };

  std::vector<ClusterOptions::BackupSpec> ResolvedSpecs() const;
  Status RunOnPrimary(const txn::TxnFn& fn, Timestamp* commit_ts, bool retry);

  ClusterOptions options_;
  std::vector<std::string> schema_;

  // Primary. taps_ precedes tee_/engine_: it must outlive both (the tee
  // holds a pointer to it; engine worker threads log through the tee).
  storage::Database primary_db_;
  TxnClock clock_;
  TapSet taps_;
  std::unique_ptr<txn::Engine> engine_;
  std::unique_ptr<log::LogCollector> tee_;
  std::unique_ptr<Shipping> shipping_;  // null until Start (or 0 backups)

  // Failover logs/sources are declared BEFORE the fleet: sources must
  // outlive the nodes started over them (BackupNode::Start's contract —
  // lazy protocols keep pointers into delivered segments), and members
  // destroy in reverse declaration order.
  std::unique_ptr<ha::PromotedPrimary> promoted_;
  std::size_t promoted_index_ = 0;
  std::vector<std::unique_ptr<log::Log>> survivor_logs_;
  std::vector<std::unique_ptr<log::SegmentSource>> survivor_sources_;

  // Fleet.
  std::vector<std::unique_ptr<BackupNode>> nodes_;
  replica::BackupSet set_;

  std::thread flusher_;
  std::atomic<bool> stop_flusher_{false};
  bool started_ = false;
  bool primary_stopped_ = false;
  bool backups_drained_ = false;
};

}  // namespace c5

#endif  // C5_API_CLUSTER_H_
