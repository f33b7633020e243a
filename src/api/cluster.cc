#include "api/cluster.h"

#include <algorithm>
#include <cassert>

#include "net/ship_server.h"
#include "net/socket_segment_source.h"
#include "storage/checkpoint.h"

namespace c5 {

// ---- BackupNode -------------------------------------------------------------

BackupNode::BackupNode(BackupOptions options) : options_(std::move(options)) {
  MakeProtocol();
}

BackupNode::~BackupNode() { Stop(); }

void BackupNode::MakeProtocol() {
  replica_ = core::MakeReplica(options_.protocol, &db_,
                               options_.protocol_options, options_.lag);
  // The node id names the NODE, not the incarnation: every protocol rebuilt
  // by Restart carries the same instance id, so multi-shard failure output
  // stays attributable across crash/restart cycles.
  replica_->SetInstanceId(options_.id);
}

std::string BackupNode::id() const {
  return options_.id.empty() ? core::ToString(options_.protocol) : options_.id;
}

TableId BackupNode::CreateTable(std::string name) {
  return db_.CreateTable(std::move(name));
}

Status BackupNode::RestoreFromCheckpoint(const std::string& path) {
  if (started_) {
    return Status::InvalidArgument("restore must precede Start");
  }
  return storage::LoadCheckpoint(&db_, path, &restored_ts_);
}

void BackupNode::Start(log::SegmentSource* source) {
  if (restored_ts_ > 0) {
    // A restored database reads at the checkpoint immediately; its
    // inherited high-water mark IS the checkpoint (one version per row at
    // or below it), so the window is empty and only the resume point
    // matters.
    replica_->SetRecoveryWindow(restored_ts_, db_.MaxCommittedTimestamp());
  }
  started_ = true;
  replica_->Start(source);
}

void BackupNode::Restart(log::SegmentSource* source) {
  const Timestamp resume =
      started_ ? replica_->VisibleTimestamp() : restored_ts_;
  replica_->Stop();
  // The surviving database may hold run-ahead writes above `resume` from
  // workers of the dead incarnation; until replay covers them again, the
  // states in between are not prefix-consistent and must stay unreadable.
  const Timestamp inherited = db_.MaxCommittedTimestamp();
  MakeProtocol();
  replica_->SetRecoveryWindow(resume, inherited);
  started_ = true;
  replica_->Start(source);
}

void BackupNode::WaitUntilCaughtUp() {
  if (started_) replica_->WaitUntilCaughtUp();
}

void BackupNode::Stop() {
  if (replica_ != nullptr) replica_->Stop();
}

Timestamp BackupNode::VisibleTimestamp() const {
  return replica_->VisibleTimestamp();
}

Status BackupNode::WriteCheckpoint(const std::string& path) {
  return storage::WriteCheckpoint(db_, VisibleTimestamp(), path);
}

std::unique_ptr<ha::PromotedPrimary> BackupNode::Promote(
    ha::EngineKind kind, log::LogCollector* extra_sink) {
  Stop();
  return ha::PromoteToPrimary(&db_, VisibleTimestamp(), kind,
                              /*segment_capacity=*/256, extra_sink);
}

// ---- Cluster ----------------------------------------------------------------

// ONE sequencer per cluster: the collector orders and segments the commit
// stream once, and every consumer takes its own subscriber channel off it —
// in-process backups directly, the ship server (when one runs) through its
// drainer — the fan-out never copies value bytes. Each lane's consumer
// releases what it has applied, so the collector frees shipped segments
// (and the server its frames) instead of keeping the whole log. Member
// order is the destruction contract: lanes (socket sources Cancel their
// connections) before the server (Stop joins the drainer) before the
// drainer's source and the collector it reads.
struct Cluster::Shipping {
  explicit Shipping(std::size_t segment_records)
      : collector(segment_records) {}

  log::OnlineLogCollector collector;
  std::unique_ptr<log::ChannelSegmentSource> server_source;
  std::unique_ptr<net::ShipServer> server;  // null: in-process only

  struct Lane {
    std::unique_ptr<log::ChannelSegmentSource> channel_source;
    std::unique_ptr<net::SocketSegmentSource> socket_source;
    std::unique_ptr<log::DelayedSegmentSource> delayed;
    log::SegmentSource* source = nullptr;  // what the backup consumes
  };
  std::vector<Lane> lanes;
};

void Cluster::TapSet::LogCommit(log::RecordSpan records) {
  SpinLockGuard lock(lock_);
  for (log::LogCollector* tap : taps_) tap->LogCommit(records);
}

void Cluster::TapSet::Attach(log::LogCollector* tap) {
  SpinLockGuard lock(lock_);
  taps_.push_back(tap);
}

void Cluster::TapSet::Detach(log::LogCollector* tap) {
  SpinLockGuard lock(lock_);
  for (auto it = taps_.begin(); it != taps_.end(); ++it) {
    if (*it == tap) {
      taps_.erase(it);
      return;
    }
  }
}

void Cluster::AttachTap(log::LogCollector* tap) { taps_.Attach(tap); }
void Cluster::DetachTap(log::LogCollector* tap) { taps_.Detach(tap); }

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {}

Cluster::~Cluster() { Shutdown(); }

std::vector<ClusterOptions::BackupSpec> Cluster::ResolvedSpecs() const {
  if (!options_.backups.empty()) return options_.backups;
  std::vector<ClusterOptions::BackupSpec> specs(options_.num_backups);
  for (auto& s : specs) s.protocol = options_.backup_protocol;
  return specs;
}

TableId Cluster::CreateTable(std::string name, std::size_t /*ignored*/) {
  assert(!started_ && "schema setup precedes Start (DDL is out of scope)");
  schema_.push_back(name);
  return primary_db_.CreateTable(std::move(name));
}

void Cluster::Start() {
  if (started_) return;
  started_ = true;

  const auto specs = ResolvedSpecs();

  // The shipping sequencer first (the engine's collector tees into it): ONE
  // OnlineLogCollector orders the commit stream, and each backup gets its
  // own subscriber channel off it below. The tap set (usually empty — a live
  // migration's catch-up stream when attached) rides alongside in the tee;
  // every sink sees the same borrowed span.
  bool want_server = options_.listen_port >= 0;
  for (const auto& spec : specs) want_server |= spec.via_socket;
  std::vector<log::LogCollector*> sinks;
  if (!specs.empty() || want_server) {
    shipping_ = std::make_unique<Shipping>(options_.segment_records);
    sinks.push_back(&shipping_->collector);
  }
  sinks.push_back(&taps_);
  tee_ = std::make_unique<log::TeeCollector>(std::move(sinks));

  // Primary engine. Online sequencing needs the engine's release horizon —
  // the smallest timestamp any in-flight transaction could still commit
  // with — on every lane.
  engine_ = txn::MakeEngine(options_.engine, &primary_db_, tee_.get(), &clock_);
  if (shipping_ != nullptr) {
    shipping_->collector.SetReleaseHorizon(
        [eng = engine_.get()] { return eng->LogHorizon(); });
  }

  // Subscriber channels may only go to ACTUAL consumers — an unconsumed
  // channel fills and blocks the sequencer — so they are claimed on demand:
  // the first consumer takes the collector's built-in channel, later ones
  // add subscribers. All claims happen here, before the first LogCommit
  // (no writes run until Start returns), as AddSubscriber requires.
  bool channel0_claimed = false;
  const auto claim_channel = [&]() -> SpscQueue<log::LogSegment*>* {
    if (!channel0_claimed) {
      channel0_claimed = true;
      return &shipping_->collector.channel();
    }
    return shipping_->collector.AddSubscriber();
  };

  // The ship server (real-socket transport) consumes one lane and streams
  // it to every TCP subscriber — external processes and this cluster's own
  // via_socket backups alike.
  if (want_server) {
    net::ShipServer::Options so;
    so.port = options_.listen_port > 0
                  ? static_cast<std::uint16_t>(options_.listen_port)
                  : 0;
    shipping_->server = std::make_unique<net::ShipServer>(so);
    const Status ss = shipping_->server->Start();
    assert(ss.ok() && "ship server failed to listen");
    (void)ss;
    shipping_->server_source =
        shipping_->collector.MakeSource(claim_channel());
    shipping_->server->ServeChannel(shipping_->server_source.get());
  }

  // The fleet: one node per spec, schema mirrored (table ids match by
  // creation order), each consuming its own lane — a subscriber channel, or
  // a loopback TCP subscription through the server for via_socket nodes.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    BackupOptions bo;
    bo.protocol = specs[i].protocol;
    bo.protocol_options = options_.protocol;
    bo.lag = specs[i].lag;
    bo.id = options_.id + "/backup" + std::to_string(i);
    nodes_.push_back(std::make_unique<BackupNode>(std::move(bo)));
    for (const std::string& name : schema_) nodes_.back()->CreateTable(name);
    shipping_->lanes.push_back({});
    Shipping::Lane& lane = shipping_->lanes.back();
    if (specs[i].via_socket) {
      net::SocketSegmentSource::Options so;
      so.port = shipping_->server->port();
      lane.socket_source =
          std::make_unique<net::SocketSegmentSource>(std::move(so));
      lane.source = lane.socket_source.get();
    } else {
      lane.channel_source = shipping_->collector.MakeSource(claim_channel());
      lane.source = lane.channel_source.get();
    }
    if (specs[i].ship_delay.count() > 0) {
      const auto delay = specs[i].ship_delay;
      lane.delayed = std::make_unique<log::DelayedSegmentSource>(
          lane.source, [delay](std::size_t) { return delay; });
      lane.source = lane.delayed.get();
    }
    nodes_.back()->Start(lane.source);
    set_.Add(&nodes_.back()->reader());
  }
  promoted_index_ = nodes_.size();

  if (options_.flush_interval.count() > 0 && shipping_ != nullptr) {
    flusher_ = std::thread([this] {
      while (!stop_flusher_.load(std::memory_order_acquire)) {
        shipping_->collector.Flush();
        std::this_thread::sleep_for(options_.flush_interval);
      }
    });
  }
}

Status Cluster::RunOnPrimary(const txn::TxnFn& fn, Timestamp* commit_ts,
                             bool retry) {
  txn::Engine* e = promoted_ != nullptr ? promoted_->engine.get()
                                        : engine_.get();
  if (e == nullptr) return Status::Internal("cluster not started");
  if (promoted_ == nullptr && primary_stopped_) {
    return Status::Internal("primary stopped; promote a backup first");
  }
  if (commit_ts == nullptr) {
    return retry ? e->ExecuteWithRetry(fn) : e->Execute(fn);
  }
  // Capture the transaction's own timestamp from the attempt that commits.
  // MVTSO: timestamp() is the commit timestamp, and it is guaranteed to be
  // LOGGED — which matters for liveness: concurrently aborted writers
  // consume higher clock values that never reach the log, so reporting
  // clock.Latest() could hand out a session token no backup can ever
  // cover. 2PL assigns its LSN only at commit (timestamp() reads
  // kInvalidTimestamp in the body); there clock.Latest() IS a live upper
  // bound, because LSNs are drawn exclusively by committing write
  // transactions, every one of which is logged.
  Timestamp attempt_ts = kInvalidTimestamp;
  // A named lambda, not a txn::TxnFn: TxnFn is a non-owning view, and a view
  // initialized from a lambda temporary would dangle past this statement.
  const auto wrapped = [&fn, &attempt_ts](txn::Txn& txn) {
    const Status s = fn(txn);
    attempt_ts = txn.timestamp();
    return s;
  };
  const Status s = retry ? e->ExecuteWithRetry(wrapped) : e->Execute(wrapped);
  if (s.ok()) {
    *commit_ts = attempt_ts != kInvalidTimestamp
                     ? attempt_ts
                     : (promoted_ != nullptr ? promoted_->clock.Latest()
                                             : clock_.Latest());
  }
  return s;
}

Status Cluster::Execute(const txn::TxnFn& fn, Timestamp* commit_ts) {
  return RunOnPrimary(fn, commit_ts, /*retry=*/false);
}

Status Cluster::ExecuteWithRetry(const txn::TxnFn& fn, Timestamp* commit_ts) {
  return RunOnPrimary(fn, commit_ts, /*retry=*/true);
}

void Cluster::Flush() {
  if (shipping_ != nullptr) shipping_->collector.Flush();
}

replica::ClientSession Cluster::OpenSession() {
  replica::ClientSession::Options o;
  o.policy = options_.routing;
  o.wait_timeout = options_.session_wait_timeout;
  return OpenSession(o);
}

replica::ClientSession Cluster::OpenSession(
    replica::ClientSession::Options options) {
  return replica::ClientSession(&set_, options);
}

void Cluster::StopPrimary() {
  if (!started_ || primary_stopped_) return;
  primary_stopped_ = true;
  stop_flusher_.store(true, std::memory_order_release);
  if (flusher_.joinable()) flusher_.join();
  if (shipping_ != nullptr) shipping_->collector.Finish();
}

void Cluster::WaitForBackups() {
  StopPrimary();
  for (auto& node : nodes_) node->WaitUntilCaughtUp();
  backups_drained_ = true;
}

Status Cluster::Promote(std::size_t backup_index) {
  if (backup_index >= nodes_.size()) {
    return Status::InvalidArgument("no such backup");
  }
  if (promoted_ != nullptr) {
    return Status::InvalidArgument("a backup is already promoted");
  }
  // §9's synchronization step: the candidate (and, for a consistent fleet,
  // everyone else) drains what it received before the switch.
  WaitForBackups();
  for (auto& node : nodes_) node->Stop();
  // The tap set rides along: a migration tailing this shard's commit
  // stream keeps seeing it from the new primary.
  promoted_ = nodes_[backup_index]->Promote(options_.engine, &taps_);
  promoted_index_ = backup_index;
  return Status::Ok();
}

void Cluster::RefreshPromotedReader() {
  if (promoted_ == nullptr) return;
  // Settled point of the promoted engine: LogHorizon() lower-bounds every
  // future commit timestamp, so nothing at or below horizon - 1 can still
  // resolve; clock.Latest() caps it at what was actually handed out. With
  // no transaction in flight the horizon is kMaxTimestamp and the clock
  // alone decides.
  const Timestamp latest = promoted_->clock.Latest();
  const Timestamp horizon = promoted_->engine->LogHorizon();
  const Timestamp settled =
      horizon == kMaxTimestamp ? latest : std::min(latest, horizon - 1);
  nodes_[promoted_index_]->reader().AdvanceVisibleTo(settled);
}

Status Cluster::CatchUpSurvivors() {
  if (promoted_ == nullptr) {
    return Status::InvalidArgument("nothing promoted");
  }
  log::Log delta = promoted_->collector.Coalesce();
  if (delta.NumSegments() == 0) return Status::Ok();
  // Each survivor restarts its clone in place over a private copy of the
  // promoted history; the promoted node's clock was seeded above every
  // replicated commit, so the concatenated history is well formed and the
  // restart's recovery window is empty.
  std::vector<BackupNode*> restarted;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i == promoted_index_) continue;
    survivor_logs_.push_back(log::CopyLog(delta));
    survivor_sources_.push_back(
        std::make_unique<log::OfflineSegmentSource>(survivor_logs_.back().get()));
    nodes_[i]->Restart(survivor_sources_.back().get());
    // Restart replaced the node's ReplicaBase; re-point the session fleet
    // at the new incarnation (the old pointer is dead).
    set_.Assign(i, &nodes_[i]->reader());
    restarted.push_back(nodes_[i].get());
  }
  for (BackupNode* node : restarted) {
    node->WaitUntilCaughtUp();
    node->Stop();
  }
  return Status::Ok();
}

void Cluster::Shutdown() {
  if (!started_) return;
  StopPrimary();
  if (promoted_ == nullptr) WaitForBackups();
  for (auto& node : nodes_) node->Stop();
}

Status Cluster::ExportRows(TableId table,
                           const std::function<bool(Key)>& keep, Timestamp ts,
                           std::vector<ExportedRow>* out) {
  storage::Database& db = current_primary_db();
  if (table >= db.NumTables()) {
    return Status::InvalidArgument("no such table");
  }
  // The epoch guard keeps every version visited alive; ReadKeyAt at a
  // SETTLED ts (caller waited PrimaryLogHorizon() > ts) never meets an
  // unresolved pending version at or below ts, so it returns the final
  // committed state as of ts.
  const auto guard = db.epochs().Enter();
  // Collect the partition's keys first, read after: ForEach holds the index
  // shard's non-reentrant lock while visiting, and ReadKeyAt re-enters the
  // index via Lookup.
  std::vector<Key> keys;
  db.index(table).ForEach([&](Key key, RowId, Timestamp) {
    if (keep(key)) keys.push_back(key);
  });
  for (const Key key : keys) {
    const storage::Version* v = db.ReadKeyAt(table, key, ts);
    if (v == nullptr || v->deleted) continue;
    out->push_back(ExportedRow{key, Value(v->value()), v->write_ts});
  }
  return Status::Ok();
}

Timestamp Cluster::PrimaryLogHorizon() const {
  if (promoted_ != nullptr) return promoted_->engine->LogHorizon();
  return engine_ != nullptr ? engine_->LogHorizon() : kMaxTimestamp;
}

net::ShipServer* Cluster::ship_server() {
  return shipping_ != nullptr ? shipping_->server.get() : nullptr;
}

std::uint16_t Cluster::server_port() const {
  return shipping_ != nullptr && shipping_->server != nullptr
             ? shipping_->server->port()
             : 0;
}

txn::Engine& Cluster::engine() {
  return promoted_ != nullptr ? *promoted_->engine : *engine_;
}

TxnClock& Cluster::clock() {
  return promoted_ != nullptr ? promoted_->clock : clock_;
}

}  // namespace c5
