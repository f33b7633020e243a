#include "api/sharded_cluster.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <thread>

namespace c5 {

namespace {

// K-way merge of per-shard ascending slices into one ascending sequence.
// Shards own disjoint keys, so no tie-breaking or dedup is needed. The
// linear best-head scan is O(shards) per element — fine for the handful of
// shard groups a fleet runs.
void MergeAscending(std::vector<std::vector<std::pair<Key, Value>>>* parts,
                    std::vector<std::pair<Key, Value>>* out) {
  std::size_t total = 0;
  for (const auto& part : *parts) total += part.size();
  out->reserve(out->size() + total);
  std::vector<std::size_t> pos(parts->size(), 0);
  for (;;) {
    std::size_t best = parts->size();
    for (std::size_t i = 0; i < parts->size(); ++i) {
      if (pos[i] >= (*parts)[i].size()) continue;
      if (best == parts->size() ||
          (*parts)[i][pos[i]].first < (*parts)[best][pos[best]].first) {
        best = i;
      }
    }
    if (best == parts->size()) return;
    out->push_back(std::move((*parts)[best][pos[best]++]));
  }
}

// Scatter-gather skeleton shared by the cluster-level and session MultiGet:
// group key POSITIONS by owning shard, run one per-shard batch read, gather
// results back into the caller's order. `read_shard(s, keys, *values)`
// performs the per-shard read and returns its statuses.
template <typename ShardRead>
std::vector<Status> ScatterGather(const ShardRouter& router, TableId table,
                                  const std::vector<Key>& keys,
                                  std::vector<Value>* out,
                                  const ShardRead& read_shard) {
  std::vector<Status> statuses(keys.size(), Status::Ok());
  out->assign(keys.size(), Value());
  const auto groups = router.GroupByShard(table, keys);
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    std::vector<Key> shard_keys;
    shard_keys.reserve(groups[s].size());
    for (const std::size_t i : groups[s]) shard_keys.push_back(keys[i]);
    std::vector<Value> shard_values;
    const std::vector<Status> shard_statuses =
        read_shard(s, shard_keys, &shard_values);
    for (std::size_t j = 0; j < groups[s].size(); ++j) {
      statuses[groups[s][j]] = shard_statuses[j];
      if (shard_statuses[j].ok()) (*out)[groups[s][j]] = shard_values[j];
    }
  }
  return statuses;
}

}  // namespace

namespace {

// Release-build normalization (mirrors ShardRouter's own clamp): a 0-shard
// fleet would pass routing — the router clamps to 1 — and then index an
// empty shards_ vector.
ShardedClusterOptions Normalize(ShardedClusterOptions options) {
  assert(options.num_shards >= 1 && "a fleet has at least one shard group");
  if (options.num_shards == 0) options.num_shards = 1;
  return options;
}

}  // namespace

ShardedCluster::ShardedCluster(ShardedClusterOptions options)
    : options_(Normalize(std::move(options))),
      router_(options_.num_shards, options_.router_seed) {
  shards_.reserve(options_.num_shards);
  gates_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i) {
    ClusterOptions group = options_.shard;
    group.id = options_.id_prefix + std::to_string(i);
    shards_.push_back(std::make_unique<Cluster>(std::move(group)));
    gates_.push_back(std::make_unique<ShardGate>());
  }
}

ShardedCluster::~ShardedCluster() { Shutdown(); }

TableId ShardedCluster::CreateTable(std::string name,
                                    ShardRouter::PartitionFn partition) {
  assert(!started_ && "schema setup precedes Start (DDL is out of scope)");
  // Table ids match across shards by creation order — the façade creates on
  // every shard, so they cannot drift.
  TableId id = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const TableId got = shards_[i]->CreateTable(name);
    if (i == 0) {
      id = got;
    } else {
      assert(got == id && "shard schemas diverged");
      (void)got;
    }
  }
  if (partition != nullptr) router_.SetPartitionKey(id, std::move(partition));
  return id;
}

void ShardedCluster::Start() {
  if (started_) return;
  started_ = true;
  for (auto& shard : shards_) shard->Start();
}

// ---- Migration gates --------------------------------------------------------

std::size_t ShardedCluster::AcquireRouted(
    TableId table, Key key, std::shared_lock<SharedMutex>* lock) const {
  for (;;) {
    const std::size_t s = router_.ShardOf(table, key);
    ShardGate& gate = *gates_[s];
    if (gate.cutover_pending.load(std::memory_order_acquire)) {
      // A cutover is waiting for this shard's gate: don't pile more shared
      // holders in front of it — the exclusive acquisition must drain.
      std::this_thread::yield();
      continue;
    }
    std::shared_lock<SharedMutex> held(gate.mu);
    // Between routing and acquisition a cutover may have completed and
    // moved the key; under the gate the route is stable, so one re-check
    // suffices.
    if (router_.ShardOf(table, key) != s) continue;
    if (router_.IsFenced(table, key)) {
      // Mid-cutover for this key's partition: back off until the fence
      // drops (the fence window is the final tail drain — brief).
      held.unlock();
      std::this_thread::yield();
      continue;
    }
    *lock = std::move(held);
    return s;
  }
}

std::vector<std::shared_lock<SharedMutex>>
ShardedCluster::AcquireAllShared() const {
  std::vector<std::shared_lock<SharedMutex>> locks;
  locks.reserve(gates_.size());
  for (const auto& gate : gates_) {
    while (gate->cutover_pending.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    locks.emplace_back(gate->mu);
  }
  return locks;
}

// ---- Write path -------------------------------------------------------------

Status ShardedCluster::RoutedExecute(TableId table, Key routing_key,
                                     const txn::TxnFn& fn,
                                     Timestamp* commit_ts, bool retry) {
  std::shared_lock<SharedMutex> gate;
  const std::size_t s = AcquireRouted(table, routing_key, &gate);
  // The gate is held across the whole transaction: every commit of a moving
  // key is either drained by the cutover's exclusive acquisition (and so
  // lands in the tail the migration applies) or happens after the epoch
  // bump on the destination. No write can fall between.
  return retry ? shards_[s]->ExecuteWithRetry(fn, commit_ts)
               : shards_[s]->Execute(fn, commit_ts);
}

Status ShardedCluster::Execute(TableId table, Key routing_key,
                               const txn::TxnFn& fn, Timestamp* commit_ts) {
  return RoutedExecute(table, routing_key, fn, commit_ts, /*retry=*/false);
}

Status ShardedCluster::ExecuteWithRetry(TableId table, Key routing_key,
                                        const txn::TxnFn& fn,
                                        Timestamp* commit_ts) {
  return RoutedExecute(table, routing_key, fn, commit_ts, /*retry=*/true);
}

Status ShardedCluster::ExecuteOnShard(std::size_t shard_index,
                                      const txn::TxnFn& fn,
                                      Timestamp* commit_ts) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  return shards_[shard_index]->Execute(fn, commit_ts);
}

Status ShardedCluster::ExecuteOnShardWithRetry(std::size_t shard_index,
                                               const txn::TxnFn& fn,
                                               Timestamp* commit_ts) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  return shards_[shard_index]->ExecuteWithRetry(fn, commit_ts);
}

void ShardedCluster::Flush() {
  for (auto& shard : shards_) shard->Flush();
}

// ---- Read path --------------------------------------------------------------

Status ShardedCluster::Get(TableId table, Key key, Value* out) {
  if (router_.IsPartitioned(table)) {
    // Under the shared gate no cutover can complete concurrently, so the
    // route is current for the whole read: the snapshot can never serve a
    // shard the key already moved away from (whose residue tombstones
    // would read as a spurious miss, or worse, as the pre-move value after
    // a post-move write landed on the new owner).
    std::shared_lock<SharedMutex> gate;
    const std::size_t s = AcquireRouted(table, key, &gate);
    Cluster& shard = *shards_[s];
    const Snapshot snap = shard.OpenSnapshot();
    return snap.Get(table, key, out);
  }
  const std::size_t routed = router_.ShardOf(table, key);
  {
    Cluster& shard = *shards_[routed];
    const Snapshot snap = shard.OpenSnapshot();
    const Status s = snap.Get(table, key, out);
    if (s.code() != StatusCode::kNotFound) return s;
  }
  // Unpartitioned table: the router is not authoritative, so a miss on the
  // hash-routed shard probes the rest — a replicated catalog hits on the
  // first probe, a shard-local stream wherever its writer lives.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (s == routed) continue;
    Cluster& shard = *shards_[s];
    const Snapshot snap = shard.OpenSnapshot();
    const Status st = snap.Get(table, key, out);
    if (st.code() != StatusCode::kNotFound) return st;
  }
  return Status::NotFound("key absent on every shard");
}

std::vector<Status> ShardedCluster::MultiGet(TableId table,
                                             const std::vector<Key>& keys,
                                             std::vector<Value>* out) {
  if (!router_.IsPartitioned(table)) {
    // Unpartitioned: per-key probe (see Get). No single-snapshot guarantee
    // across keys — there is no shard whose snapshot covers them all.
    std::vector<Status> statuses;
    statuses.reserve(keys.size());
    out->assign(keys.size(), Value());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      statuses.push_back(Get(table, keys[i], &(*out)[i]));
    }
    return statuses;
  }
  // Gates held shared across all shards: the epoch is stable for the whole
  // scatter-gather, so every key is read on its (current) owner only — a
  // mid-copy destination duplicate is never consulted.
  const auto gates = AcquireAllShared();
  return ScatterGather(
      router_, table, keys, out,
      [&](std::size_t s, const std::vector<Key>& shard_keys,
          std::vector<Value>* values) {
        // One snapshot per shard: the whole sub-batch reads one
        // monotonic-prefix-consistent state of that shard.
        const Snapshot snap =
            shards_[s]->OpenSnapshot();
        return snap.MultiGet(table, shard_keys, values);
      });
}

Status ShardedCluster::Scan(TableId table, Key lo, Key hi,
                            std::vector<std::pair<Key, Value>>* out) {
  out->clear();
  if (!router_.IsPartitioned(table)) {
    // The exact-merge contract needs disjoint per-shard key ownership,
    // which unpartitioned tables do not have (a replicated catalog holds
    // every key everywhere; a shard-local stream can reuse key values).
    // Scan each shard(i) directly instead.
    return Status::InvalidArgument(
        "cross-shard scan over an unpartitioned table is not defined");
  }
  // Gates held shared across all shards (stable epoch), and each slice is
  // filtered to the keys the shard OWNS: during a migration's copy window
  // the moving keys exist on both source and destination, and without the
  // ownership filter the merge would emit them twice.
  const auto gates = AcquireAllShared();
  std::vector<std::vector<std::pair<Key, Value>>> parts(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Snapshot snap =
        shards_[s]->OpenSnapshot();
    for (auto it = snap.Scan(table, lo, hi); it.Valid(); it.Next()) {
      if (router_.ShardOf(table, it.key()) != s) continue;
      parts[s].emplace_back(it.key(), Value(it.value()));
    }
  }
  MergeAscending(&parts, out);
  return Status::Ok();
}

Status ShardedCluster::Aggregate(TableId table, Key lo, Key hi,
                                 const AggSpec& spec, AggResult* out) {
  *out = AggResult{};
  if (!router_.IsPartitioned(table)) {
    // Same disjoint-ownership requirement as Scan: without it a replicated
    // key would contribute to every shard's partial.
    return Status::InvalidArgument(
        "cross-shard aggregation over an unpartitioned table is not defined");
  }
  const auto gates = AcquireAllShared();
  struct OwnerCtx {
    const ShardRouter* router;
    TableId table;
    std::size_t shard;
  };
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    OwnerCtx ctx{&router_, table, s};
    AggSpec shard_spec = spec;
    shard_spec.key_filter = [](Key key, void* p) {
      const auto* c = static_cast<const OwnerCtx*>(p);
      return c->router->ShardOf(c->table, key) == c->shard;
    };
    shard_spec.key_filter_ctx = &ctx;
    const Snapshot snap = shards_[s]->OpenSnapshot();
    out->Merge(snap.Aggregate(table, lo, hi, shard_spec));
  }
  return Status::Ok();
}

// ---- Sessions ---------------------------------------------------------------

ShardedCluster::Session::Session(ShardedCluster* owner) : owner_(owner) {
  sessions_.reserve(owner_->shards_.size());
  for (auto& shard : owner_->shards_) {
    replica::ClientSession::Options o;
    o.policy = shard->options().routing;
    o.wait_timeout = shard->options().session_wait_timeout;
    sessions_.push_back(
        std::make_unique<replica::ClientSession>(&shard->backup_set(), o));
  }
}

ShardedCluster::Session ShardedCluster::OpenSession() {
  return Session(this);
}

void ShardedCluster::Session::OnWrite(TableId table, Key key,
                                      Timestamp commit_ts) {
  sessions_[owner_->router_.ShardOf(table, key)]->OnWrite(commit_ts);
}

void ShardedCluster::Session::OnWriteToShard(std::size_t shard_index,
                                             Timestamp commit_ts) {
  assert(shard_index < sessions_.size() && "no such shard");
  if (shard_index >= sessions_.size()) return;  // release-build safety
  sessions_[shard_index]->OnWrite(commit_ts);
}

void ShardedCluster::Session::FoldTransitions() {
  const auto fresh = owner_->TransitionsSince(folded_);
  for (const auto& tr : fresh) {
    // Conservative: any session that wrote to the cutover's source shard
    // may have written the moved partition, so its destination token must
    // cover the migrated data. Raising a token never violates safety (it
    // only makes reads wait for a fresher backup).
    if (sessions_[tr.src]->token() > 0 && tr.dest_covering_ts > 0) {
      sessions_[tr.dst]->OnWrite(tr.dest_covering_ts);
    }
  }
  folded_ += fresh.size();
}

Status ShardedCluster::Session::Read(TableId table, Key key, Value* out) {
  FoldTransitions();
  const ShardRouter& router = owner_->router_;
  if (router.IsPartitioned(table)) {
    std::shared_lock<SharedMutex> gate;
    const std::size_t s = owner_->AcquireRouted(table, key, &gate);
    return sessions_[s]->Read(table, key, out);
  }
  const std::size_t routed = router.ShardOf(table, key);
  const Status s = sessions_[routed]->Read(table, key, out);
  if (s.code() != StatusCode::kNotFound) return s;
  // Unpartitioned table: probe the remaining shards (see ShardedCluster::Get).
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (i == routed) continue;
    const Status st = sessions_[i]->Read(table, key, out);
    if (st.code() != StatusCode::kNotFound) return st;
  }
  return Status::NotFound("key absent on every shard");
}

std::vector<Status> ShardedCluster::Session::MultiGet(
    TableId table, const std::vector<Key>& keys, std::vector<Value>* out) {
  FoldTransitions();
  if (!owner_->router_.IsPartitioned(table)) {
    std::vector<Status> statuses;
    statuses.reserve(keys.size());
    out->assign(keys.size(), Value());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      statuses.push_back(Read(table, keys[i], &(*out)[i]));
    }
    return statuses;
  }
  const auto gates = owner_->AcquireAllShared();
  return ScatterGather(
      owner_->router_, table, keys, out,
      [&](std::size_t s, const std::vector<Key>& shard_keys,
          std::vector<Value>* values) {
        return sessions_[s]->MultiGet(table, shard_keys, values);
      });
}

Status ShardedCluster::Session::Scan(TableId table, Key lo, Key hi,
                                     std::vector<std::pair<Key, Value>>* out) {
  FoldTransitions();
  out->clear();
  if (!owner_->router_.IsPartitioned(table)) {
    return Status::InvalidArgument(
        "cross-shard scan over an unpartitioned table is not defined");
  }
  const auto gates = owner_->AcquireAllShared();
  std::vector<std::vector<std::pair<Key, Value>>> parts(sessions_.size());
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    const Status st = sessions_[s]->Scan(table, lo, hi, &parts[s]);
    if (!st.ok()) return st;  // a routing timeout fails the whole range
    // Ownership filter: see ShardedCluster::Scan.
    auto& part = parts[s];
    part.erase(std::remove_if(part.begin(), part.end(),
                              [&](const std::pair<Key, Value>& kv) {
                                return owner_->router_.ShardOf(
                                           table, kv.first) != s;
                              }),
               part.end());
  }
  MergeAscending(&parts, out);
  return Status::Ok();
}

Timestamp ShardedCluster::Session::token(std::size_t shard_index) const {
  assert(shard_index < sessions_.size() && "no such shard");
  if (shard_index >= sessions_.size()) return 0;  // release-build safety
  return sessions_[shard_index]->token();
}

// ---- Per-shard failover -----------------------------------------------------

Status ShardedCluster::StopPrimary(std::size_t shard_index) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  shards_[shard_index]->StopPrimary();
  return Status::Ok();
}

void ShardedCluster::WaitForBackups() {
  for (auto& shard : shards_) shard->WaitForBackups();
}

Status ShardedCluster::Promote(std::size_t shard_index,
                               std::size_t backup_index) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  return shards_[shard_index]->Promote(backup_index);
}

Status ShardedCluster::CatchUpSurvivors(std::size_t shard_index) {
  if (shard_index >= shards_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  return shards_[shard_index]->CatchUpSurvivors();
}

void ShardedCluster::Shutdown() {
  for (auto& shard : shards_) shard->Shutdown();
}

// ---- Live resharding --------------------------------------------------------

std::vector<ShardedCluster::EpochTransition> ShardedCluster::TransitionsSince(
    std::size_t from) const {
  SpinLockGuard lock(transitions_mu_);
  if (from >= transitions_.size()) return {};
  return std::vector<EpochTransition>(transitions_.begin() + from,
                                      transitions_.end());
}

Status ShardedCluster::Rebalance(const MigrationPlan& plan,
                                 MigrationReport* report) {
  return Rebalance(plan, report, RebalanceHooks{});
}

Status ShardedCluster::Rebalance(const MigrationPlan& plan,
                                 MigrationReport* report,
                                 const RebalanceHooks& hooks) {
  if (!started_) return Status::InvalidArgument("fleet not started");
  const Status valid = router_.ValidatePlan(plan);
  if (!valid.ok()) return valid;
  const std::size_t src = plan.front().from;
  const std::size_t dst = plan.front().to;
  for (const ShardMove& move : plan) {
    if (move.from != src || move.to != dst) {
      return Status::InvalidArgument(
          "all moves in one Rebalance share one source and one destination "
          "shard; split multi-way plans into one call per (from, to) edge");
    }
  }
  bool expected = false;
  if (!rebalance_active_.compare_exchange_strong(expected, true)) {
    return Status::InvalidArgument("a Rebalance is already in flight");
  }

  Cluster& source = *shards_[src];
  Cluster& dest = *shards_[dst];

  // Moving-set membership, by (table, partition token).
  std::vector<std::pair<TableId, std::uint64_t>> moving;
  moving.reserve(plan.size());
  for (const ShardMove& move : plan) {
    moving.emplace_back(move.table, move.token);
  }
  std::sort(moving.begin(), moving.end());
  const auto is_moving = [this, &moving](TableId table, Key key) {
    return std::binary_search(
        moving.begin(), moving.end(),
        std::make_pair(table, router_.Token(table, key)));
  };

  // 1. Catch-up tail: a filtered tap over the source's commit stream. From
  // here on, every committed write of a moving key is either visible to the
  // bulk copy (committed before copy_ts) or buffered in `tail` — including
  // commits of a primary PROMOTED mid-migration (Cluster::Promote re-tees
  // the tap set into the new engine).
  log::BufferCollector tail;
  log::FilteredCollector tap(
      &tail, [&is_moving](const log::LogRecord& rec) {
        return is_moving(rec.table, rec.key);
      });
  source.AttachTap(&tap);

  MigrationReport local;
  // Per-key newest-wins bookkeeping in the SOURCE timestamp domain: the
  // tail's arrival order is not commit order (MVTSO threads reach their
  // commit points out of timestamp order), and tail records may overlap the
  // bulk copy. A record is applied to the destination only if it is newer
  // than what was already applied for its key, so any arrival order
  // converges to the source's final state.
  std::map<std::pair<TableId, Key>, Timestamp> applied;
  Timestamp dest_cover = 0;

  const auto fail = [&](const Status& st) {
    source.DetachTap(&tap);
    router_.AbortFence();  // no-op when no fence is up
    rebalance_active_.store(false, std::memory_order_release);
    return st;
  };

  const auto drain_tail = [&]() -> Status {
    std::vector<log::LogRecord> records;
    tail.DrainInto(&records);
    for (const log::LogRecord& rec : records) {
      Timestamp& seen = applied[{rec.table, rec.key}];
      if (rec.commit_ts <= seen) continue;
      seen = rec.commit_ts;
      Timestamp commit = 0;
      bool wrote = false;
      const bool is_delete = rec.op == OpType::kDelete;
      const Status st = dest.ExecuteWithRetry(
          [&](txn::Txn& txn) {
            wrote = true;
            if (!is_delete) {
              return txn.Put(rec.table, rec.key, Value(rec.value.view()));
            }
            const Status ds = txn.Delete(rec.table, rec.key);
            // Deleting a key the destination never saw (created and deleted
            // entirely inside the tail, delete delivered first) is the
            // desired final state, not an error. That transaction writes
            // nothing, so it is never logged and no backup ever covers its
            // timestamp: it must not raise dest_cover, or the cutover waits
            // forever once no later destination write arrives.
            if (ds.code() != StatusCode::kNotFound) return ds;
            wrote = false;
            return Status::Ok();
          },
          &commit);
      if (!st.ok()) return st;
      if (wrote) dest_cover = std::max(dest_cover, commit);
      ++local.tail_records;
    }
    return Status::Ok();
  };

  // 2. Settle a copy timestamp: once the source engine's log horizon passes
  // it, every transaction at or below copy_ts has finished, so the export
  // reads a complete committed prefix straight off the source primary.
  const Timestamp copy_ts = source.clock().Latest();
  while (source.PrimaryLogHorizon() <= copy_ts) std::this_thread::yield();

  std::vector<TableId> tables;
  for (const ShardMove& move : plan) {
    if (std::find(tables.begin(), tables.end(), move.table) == tables.end()) {
      tables.push_back(move.table);
    }
  }

  // Bulk copy, batched into bounded transactions on the destination. The
  // destination serves its own traffic throughout — the copy is just more
  // (blind-write) transactions in its stream.
  constexpr std::size_t kCopyBatch = 64;
  for (const TableId table : tables) {
    std::vector<ExportedRow> rows;
    const Status ex = source.ExportRows(
        table, [&](Key key) { return is_moving(table, key); }, copy_ts,
        &rows);
    if (!ex.ok()) return fail(ex);
    for (std::size_t i = 0; i < rows.size(); i += kCopyBatch) {
      const std::size_t end = std::min(rows.size(), i + kCopyBatch);
      Timestamp commit = 0;
      const Status st = dest.ExecuteWithRetry(
          [&](txn::Txn& txn) {
            for (std::size_t j = i; j < end; ++j) {
              const Status ps = txn.Put(table, rows[j].key, rows[j].value);
              if (!ps.ok()) return ps;
            }
            return Status::Ok();
          },
          &commit);
      if (!st.ok()) return fail(st);
      dest_cover = std::max(dest_cover, commit);
    }
    for (const ExportedRow& row : rows) {
      applied[{table, row.key}] = row.version_ts;
    }
    local.rows_copied += rows.size();
  }

  if (hooks.after_copy) hooks.after_copy();

  // 3. Pre-fence catch-up rounds: shrink the tail the fenced window has to
  // drain (the fence only needs to cover the LAST round).
  for (int round = 0; round < 3; ++round) {
    const Status st = drain_tail();
    if (!st.ok()) return fail(st);
  }

  // 4. Cutover.
  {
    const Status fs = router_.BeginFence(plan);
    if (!fs.ok()) return fail(fs);
    ShardGate& gate = *gates_[src];
    gate.cutover_pending.store(true, std::memory_order_release);
    std::unique_lock<SharedMutex> cutover(gate.mu);
    // Exclusive gate held: in-flight source transactions have drained, new
    // moving-key writers are fenced out, so the tail is now FINAL.
    Status st = drain_tail();
    // Tombstone the source residue inside the exclusive section: a reader
    // either completed entirely before (its snapshot predates the deletes)
    // or routes to the destination after the bump — no window where the old
    // owner serves a missing key.
    if (st.ok()) {
      std::vector<std::pair<TableId, Key>> residue;
      residue.reserve(applied.size());
      for (const auto& [table_key, ts] : applied) residue.push_back(table_key);
      for (std::size_t i = 0; i < residue.size() && st.ok(); i += kCopyBatch) {
        const std::size_t end = std::min(residue.size(), i + kCopyBatch);
        st = source.ExecuteWithRetry([&](txn::Txn& txn) {
          for (std::size_t j = i; j < end; ++j) {
            const Status ds = txn.Delete(residue[j].first, residue[j].second);
            if (!ds.ok() && ds.code() != StatusCode::kNotFound) return ds;
          }
          return Status::Ok();
        });
        if (st.ok()) local.rows_deleted += end - i;
      }
    }
    if (!st.ok()) {
      gate.cutover_pending.store(false, std::memory_order_release);
      return fail(st);
    }
    // No stale reads after the bump: the destination's read surface must
    // cover everything migrated before any reader is routed there.
    if (dest_cover > 0) {
      if (dest.promoted_index() < dest.num_backups()) {
        // Destination already failed over: survivors only advance through
        // explicit re-replication.
        const Status cs = dest.CatchUpSurvivors();
        if (!cs.ok()) {
          gate.cutover_pending.store(false, std::memory_order_release);
          return fail(cs);
        }
      } else {
        dest.Flush();
        for (std::size_t b = 0; b < dest.num_backups(); ++b) {
          while (dest.backup(b).VisibleTimestamp() < dest_cover) {
            dest.Flush();
            std::this_thread::yield();
          }
        }
      }
    }
    source.DetachTap(&tap);
    local.epoch = router_.CommitPlan(plan);  // drops the fence atomically
    gate.cutover_pending.store(false, std::memory_order_release);
  }

  {
    SpinLockGuard lock(transitions_mu_);
    transitions_.push_back(EpochTransition{src, dst, dest_cover});
  }
  rebalance_active_.store(false, std::memory_order_release);
  if (report != nullptr) *report = local;
  return Status::Ok();
}

// ---- Diagnostics ------------------------------------------------------------

std::vector<std::string> ShardedCluster::VerifyPlacement() {
  std::vector<std::string> violations;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    // The CURRENT primary's database — after a promotion, the promoted
    // node's, so post-failover writes are audited too.
    storage::Database& db = shards_[s]->current_primary_db();
    // The epoch guard keeps versions ReadKeyAt touches alive while the
    // residue check walks them.
    const auto guard = db.epochs().Enter();
    for (TableId t = 0; t < db.NumTables(); ++t) {
      // Unpartitioned tables (replicated catalogs, shard-local append
      // streams) legitimately hold keys on shards they do not hash to.
      if (!router_.IsPartitioned(t)) continue;
      // Two passes: ForEach holds the index shard's (non-reentrant) lock
      // while visiting; ReadKeyAt re-enters the index via Lookup, and once
      // a migration has committed, ShardOf takes the router's epoch lock —
      // which ranks ABOVE the index shard (kRouter < kIndexShard). So only
      // collect keys inside the walk; route and read after it releases the
      // locks. (The in-callback ShardOf call was caught by the lock-rank
      // detector the first time this audit ran with epochs active.)
      std::vector<Key> keys;
      db.index(t).ForEach(
          [&keys](Key key, RowId, Timestamp) { keys.push_back(key); });
      for (const Key key : keys) {
        const std::size_t owner = router_.ShardOf(t, key);
        if (owner == s) continue;
        // Epoch-aware residue rule: a migrated-away key is legal on its old
        // owner as long as its newest version there is a tombstone
        // (Rebalance deletes at cutover; GC physically reclaims later). A
        // LIVE value on a non-owner is the violation.
        const storage::Version* v = db.ReadKeyAt(t, key, kMaxTimestamp);
        if (v == nullptr || v->deleted) continue;
        violations.push_back(
            options_.id_prefix + std::to_string(s) + ": table " +
            std::to_string(t) + " key " + std::to_string(key) +
            " routes to " + options_.id_prefix + std::to_string(owner));
      }
    }
  }
  return violations;
}

}  // namespace c5
