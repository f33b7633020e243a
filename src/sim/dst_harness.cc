#include "sim/dst_harness.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "api/cluster.h"
#include "api/snapshot.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/shard_router.h"
#include "core/protocol_factory.h"
#include "ha/promotion.h"
#include "ha/recovery.h"
#include "log/log_collector.h"
#include "log/segment_source.h"
#include "sim/dst_oracle.h"
#include "storage/version.h"
#include "workload/synthetic.h"

namespace c5::sim {

namespace {

using core::ProtocolKind;
using core::ProtocolOptions;

// ---- Deterministic primary -------------------------------------------------

struct DstPrimary {
  storage::Database db;
  TxnClock clock;
  std::unique_ptr<log::PerThreadLogCollector> collector;
  std::unique_ptr<txn::Engine> engine;
  TableId table = 0;
  log::Log log;
};

// One randomized mixed-operation transaction over a contended key space
// (same shape as the property suite's RandomTxn: operation-level existence
// errors fall back to the complementary operation, deletes churn rows).
// `keys` is the universe the transaction draws from — the whole keyspace in
// the classic scenario, one shard's partition in sharded mode.
Status MixedTxn(txn::Txn& txn, TableId table, Rng& rng,
                const std::vector<Key>& keys) {
  const int ops = 1 + static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < ops; ++i) {
    const Key key = keys[rng.Uniform(keys.size())];
    const Value value = workload::EncodeIntValue(rng.Next());
    switch (rng.Uniform(4)) {
      case 0: {
        Status s = txn.Insert(table, key, value);
        if (s.code() == StatusCode::kAlreadyExists) {
          s = txn.Update(table, key, value);
        }
        if (!s.ok()) return s;
        break;
      }
      case 1: {
        Status s = txn.Update(table, key, value);
        if (s.code() == StatusCode::kNotFound) {
          s = txn.Insert(table, key, value);
        }
        if (!s.ok()) return s;
        break;
      }
      case 2: {
        const Status s = txn.Delete(table, key);
        if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
        break;
      }
      default: {
        const Status s = txn.Put(table, key, value);
        if (!s.ok()) return s;
        break;
      }
    }
  }
  return Status::Ok();
}

// Builds a primary's engine/collector/table without running any workload —
// the reshard scenario interleaves workload rounds on TWO live primaries
// with migration steps, so setup and execution are separate primitives.
void SetupPrimary(const DstPlan& plan, DstPrimary* p) {
  p->collector =
      std::make_unique<log::PerThreadLogCollector>(plan.segment_capacity);
  p->engine = txn::MakeEngine(plan.use_2pl ? txn::EngineKind::kTwoPhaseLocking
                                           : txn::EngineKind::kMvtso,
                              &p->db, p->collector.get(), &p->clock);
  p->table = p->db.CreateTable("dst");
}

// The per-client Rng streams for one primary's workload. Streams persist
// across phased rounds (phase 2 continues phase 1's draws), so a phased run
// over a fixed partition draws the exact sequence a single full round would.
std::vector<Rng> WorkloadRngs(const DstPlan& plan,
                              std::uint64_t workload_salt) {
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(plan.clients));
  for (int c = 0; c < plan.clients; ++c) {
    rngs.emplace_back(plan.seed ^ 0xD57'0000'0003ull ^ workload_salt ^
                      (static_cast<std::uint64_t>(c) * 0x9E3779B97F4A7C15ull));
  }
  return rngs;
}

// One workload round: `txns_per_client` transactions per client, round-robin
// across the client streams, confined to `keys`.
void RunRound(const DstPlan& plan, DstPrimary* p, std::vector<Rng>& rngs,
              const std::vector<Key>& keys, std::uint64_t txns_per_client) {
  for (std::uint64_t t = 0; t < txns_per_client; ++t) {
    for (int c = 0; c < plan.clients; ++c) {
      (void)p->engine->ExecuteWithRetry([&](txn::Txn& txn) {
        return MixedTxn(txn, p->table, rngs[static_cast<std::size_t>(c)],
                        keys);
      });
    }
  }
}

// Executes the workload SERIALLY on the harness thread, round-robin across
// per-client Rng streams. Serial execution (no retries, no interleaving)
// makes the log — and therefore the whole scenario — a pure function of the
// seed; concurrency is exercised on the replay side, where it belongs.
// `keys`, when non-null, confines the workload to one shard's partition
// (and `workload_salt` separates the shards' Rng streams); null draws from
// the full keyspace with the classic streams, so pre-sharding seeds replay
// their exact historical logs.
void BuildPrimary(const DstPlan& plan, DstPrimary* p,
                  std::uint64_t workload_salt = 0,
                  const std::vector<Key>* keys = nullptr) {
  SetupPrimary(plan, p);

  std::vector<Key> all_keys;
  if (keys == nullptr) {
    all_keys.reserve(plan.keyspace);
    for (Key k = 0; k < plan.keyspace; ++k) all_keys.push_back(k);
    keys = &all_keys;
  }

  std::vector<Rng> rngs = WorkloadRngs(plan, workload_salt);
  RunRound(plan, p, rngs, *keys, plan.txns_per_client);
  p->log = p->collector->Coalesce();
}

// ---- Live reader sampler ---------------------------------------------------

// Runs Snapshot reads against a replica while it replays: checks
// snapshot-timestamp monotonicity (monotonic prefix consistency for a
// session), that no snapshot lands inside an armed recovery visibility
// window, that ordered scans return strictly ascending keys, and exercises
// the read path itself — Query Fresh's lazy instantiation and the
// GC-vs-reader epoch protocol (the ASan/TSan lanes turn latent races on
// this path into failures).
class Sampler {
 public:
  Sampler(replica::ReplicaBase* base, TableId table, std::uint64_t keyspace,
          std::uint64_t seed)
      : thread_([this, base, table, keyspace, seed] {
          Run(base, table, keyspace, seed);
        }) {}

  ~Sampler() { StopAndJoin(); }

  void StopAndJoin() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  bool monotonic() const {
    return monotonic_.load(std::memory_order_acquire);
  }
  bool outside_window() const {
    return outside_window_.load(std::memory_order_acquire);
  }
  bool scans_ordered() const {
    return scans_ordered_.load(std::memory_order_acquire);
  }

 private:
  void Run(replica::ReplicaBase* base, TableId table, std::uint64_t keyspace,
           std::uint64_t seed) {
    Rng rng(seed);
    Timestamp last = 0;
    std::uint64_t iter = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      {
        const c5::Snapshot snap = base->OpenSnapshot();
        const Timestamp ts = snap.timestamp();
        if (ts < last) monotonic_.store(false, std::memory_order_relaxed);
        last = ts;
        // A published snapshot strictly inside the recovery window would
        // expose the dead incarnation's non-prefix run-ahead states.
        if (ts > base->RecoveryResume() && ts < base->RecoveryFloor()) {
          outside_window_.store(false, std::memory_order_relaxed);
        }
        Value v;
        (void)snap.Get(table, rng.Uniform(keyspace), &v);
        if ((iter++ & 3) == 0) {
          // Ordered range read over a random band; full value checking is
          // the post-catch-up scan oracle's job — here the invariant is
          // ordering under concurrent replay (plus ASan/TSan coverage of
          // the iterator's version-chain walks).
          const Key lo = rng.Uniform(keyspace);
          Key prev_key = 0;
          bool first = true;
          for (auto it = snap.Scan(table, lo, lo + keyspace / 4); it.Valid();
               it.Next()) {
            if (!first && it.key() <= prev_key) {
              scans_ordered_.store(false, std::memory_order_relaxed);
            }
            prev_key = it.key();
            first = false;
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<bool> monotonic_{true};
  std::atomic<bool> outside_window_{true};
  std::atomic<bool> scans_ordered_{true};
  std::thread thread_;
};

// Every replica's worker count: the plan's replay_workers draw, when it made
// one, overrides its num_workers draw.
int ReplayWorkers(const DstPlan& plan) {
  return plan.replay_workers > 0 ? plan.replay_workers : plan.num_workers;
}

// ---- Report plumbing -------------------------------------------------------

void Absorb(const DstChannel& ch, DstReport* report) {
  const DstChannelStats& s = ch.stats();
  report->wire.frames_shipped += s.frames_shipped;
  report->wire.frames_corrupted += s.frames_corrupted;
  report->wire.frames_truncated += s.frames_truncated;
  report->wire.frames_duplicated += s.frames_duplicated;
  report->wire.frames_delayed += s.frames_delayed;
  report->wire.frames_rejected += s.frames_rejected;
  report->wire.retransmits += s.retransmits;
  report->wire.stale_dups_delivered += s.stale_dups_delivered;
  report->wire.stale_dups_dropped += s.stale_dups_dropped;
  report->wire.delivered_segments += s.delivered_segments;
  report->schedule_digest =
      (report->schedule_digest * 0x100000001b3ull) ^ ch.schedule_digest();
}

// Quartile prefix points (plus the final boundary) of the transaction
// history — the deterministic timestamps every replica's state is checked
// at. Multi-version storage retains history (GC off), so the checks run
// post catch-up regardless of how fast replay outpaced the sampler.
std::vector<Timestamp> CheckPoints(const std::vector<Timestamp>& boundaries) {
  std::vector<Timestamp> out;
  const std::size_t n = boundaries.size();
  for (const std::size_t idx : {n / 4, n / 2, (3 * n) / 4, n - 1}) {
    const Timestamp ts = boundaries[idx];
    if (out.empty() || out.back() != ts) out.push_back(ts);
  }
  return out;
}

// Post-catch-up state checks for one replica. The node's own declared
// recovery window (resume, floor) bounds the historical states an in-place
// restart legitimately cannot reproduce — the dead incarnation's run-ahead
// rows keep permanent holes in that range, which is exactly why the
// visibility contract makes the range unreadable (no snapshot is ever
// published inside it; the sampler and the window-closed assert enforce
// that side). `history_floor` bounds checkpoint-file compression: a
// restored database stores one version per row, so history BELOW the
// checkpoint is gone by construction.
void CheckReplicaState(const std::string& who, DstPrimary& primary,
                       std::uint64_t primary_digest, c5::BackupNode& node,
                       Timestamp final_visible, bool gc_active,
                       Timestamp history_floor,
                       const std::vector<Timestamp>& boundaries,
                       DstReport* report) {
  auto fail = [&](std::string why) {
    report->violations.push_back(who + ": " + std::move(why));
  };
  storage::Database& backup = node.db();
  if (final_visible != primary.log.MaxTimestamp()) {
    fail("final visibility watermark " + std::to_string(final_visible) +
         " does not cover the log (max ts " +
         std::to_string(primary.log.MaxTimestamp()) + ")");
  }
  // `primary_digest` is THIS replica's own primary's digest, computed once
  // per primary by the caller (sharded mode runs one primary per shard, so
  // there is no single report-wide digest to compare against).
  if (StateDigest(backup, kMaxTimestamp) != primary_digest) {
    fail("final state diverges from the primary");
  }
  std::string detail;
  if (!ChainsStrictlyOrdered(backup, &detail)) {
    fail("version chains: " + detail);
  }

  // Range-scan oracle over the final snapshot: Scan must agree with the log
  // materialization under bound-row semantics (dst_oracle.h).
  {
    const c5::Snapshot snap = node.reader().OpenSnapshot();
    if (!CheckScanOracle(snap, primary.table, primary.log,
                         report->plan.keyspace, &detail)) {
      fail(detail);
    }
    ++report->scan_checks;
  }

  // Secondary-index consistency: the ordered index must mirror the hash
  // index exactly and carry the same newest-record bindings as the log.
  if (!CheckOrderedIndexOracle(backup, primary.log, &detail,
                               &report->ordered_index_checks)) {
    fail(detail);
  }

  // Historical prefix checks need retained history; a replica that GC'd
  // during replay legitimately truncated below its horizon, so only the
  // final state is comparable there (ASan enforces the reclamation side).
  if (gc_active) return;
  const Timestamp window_lo = node.reader().RecoveryResume();
  const Timestamp window_hi = node.reader().RecoveryFloor();
  const auto unreadable = [&](Timestamp ts) {
    return ts < history_floor || (ts > window_lo && ts < window_hi);
  };
  for (const Timestamp ts : CheckPoints(boundaries)) {
    if (unreadable(ts)) continue;
    if (StateDigest(backup, ts) != StateDigest(primary.db, ts)) {
      fail("state at prefix boundary ts " + std::to_string(ts) +
           " is not a prefix of the primary's history:" +
           DiffStates(backup, primary.db, ts));
    }
  }
  const Timestamp median = boundaries[boundaries.size() / 2];
  for (const Timestamp ts : {median, boundaries.back()}) {
    if (unreadable(ts)) continue;
    if (!CheckLogicalSnapshotOracle(backup, primary.log, ts, &detail)) {
      fail(detail);
      break;
    }
  }
}

// Runs one replica incarnation over `source` with a live reader sampler
// attached: (re)start, drain, record the final visibility watermark, stop.
// Appends violations for sampler-observed breaches (snapshot regression,
// recovery-window exposure, scan ordering).
Timestamp RunIncarnation(c5::BackupNode& node, const DstPlan& plan,
                         DstChannel::Source* source, bool restart,
                         TableId table, std::uint64_t sampler_seed,
                         const std::string& who, const char* phase,
                         DstReport* report) {
  if (restart) {
    node.Restart(source);
  } else {
    // A restart's recovery window holds the visible timestamp back, so only
    // a fresh start waits for it.
    source->HoldLastUntilVisible([&node] { return node.VisibleTimestamp(); });
    node.Start(source);
  }
  Sampler sampler(&node.reader(), table, plan.keyspace, sampler_seed);
  node.WaitUntilCaughtUp();
  const Timestamp visible = node.VisibleTimestamp();
  node.Stop();
  sampler.StopAndJoin();
  const std::uint64_t released =
      node.reader().stats().released_segments.load(std::memory_order_relaxed);
  if (node.options().protocol == ProtocolKind::kC5) {
    report->c5_releases += released;
  } else if (node.options().protocol == ProtocolKind::kC5MyRocks) {
    report->c5_myrocks_releases += released;
  }
  if (!sampler.monotonic()) {
    report->violations.push_back(who + ": reader snapshot regressed " +
                                 phase);
  }
  if (!sampler.outside_window()) {
    report->violations.push_back(
        who + ": reader observed a snapshot inside the recovery window " +
        phase);
  }
  if (!sampler.scans_ordered()) {
    report->violations.push_back(who + ": scan returned out-of-order keys " +
                                 phase);
  }
  return visible;
}

// ---- Convergence run (with optional crash/restart) -------------------------

// `id_prefix` scopes the node's stable id ("" classic, "s0/" sharded);
// `router`, when non-null, arms the cross-shard router oracle: after the
// state checks, every key this replica's index materialized must route to
// `shard_index`.
void RunConvergenceReplica(const DstPlan& plan, ProtocolKind kind,
                           bool allow_crash, DstPrimary& primary,
                           std::uint64_t primary_digest,
                           const std::vector<Timestamp>& boundaries,
                           std::uint64_t salt, const DstHooks& hooks,
                           const std::string& id_prefix,
                           const ShardRouter* router, std::size_t shard_index,
                           DstReport* report) {
  // The stable node id IS the failure attribution: threaded through
  // BackupOptions::id into the replica's ReplicaBase::instance_id(), then
  // read BACK from the node (DisplayName) to prefix every violation — so a
  // sharded seed replay names the exact node, straight from the replica
  // that diverged.
  std::string who = id_prefix + std::string(core::ToString(kind)) + "[" +
                    std::to_string(salt & 0xF) + "]";
  auto fail = [&](std::string why) {
    report->violations.push_back(who + ": " + std::move(why));
  };

  // Only protocols with workers run the maintenance thread that collects.
  const bool gc_active = plan.gc_every > 0 &&
                         kind != ProtocolKind::kSingleThread &&
                         kind != ProtocolKind::kQueryFresh;
  c5::BackupOptions node_options;
  node_options.protocol = kind;
  node_options.id = who;
  node_options.protocol_options.num_workers = ReplayWorkers(plan);
  node_options.protocol_options.snapshot_interval =
      std::chrono::microseconds(100);
  node_options.protocol_options.gc_every = plan.gc_every;

  const std::size_t num_segs = primary.log.NumSegments();
  // Channels outlive replicas AND state checks: lazy protocols keep
  // pointers into delivered segments until destroyed.
  DstChannel channel(&primary.log, 0, num_segs, plan, salt,
                     hooks.drop_txn_segment);
  Absorb(channel, report);
  if (!channel.error().empty()) {
    fail("channel: " + channel.error());
    return;
  }
  if (channel.delivered().empty()) {
    fail("channel delivered nothing");
    return;
  }

  auto node = std::make_unique<c5::BackupNode>(node_options);
  node->CreateTable("dst");
  who = node->reader().DisplayName();  // id as the replica itself declares it

  const bool crash = allow_crash && plan.crash &&
                     channel.delivered().size() >= 2;
  std::unique_ptr<DstChannel> resume_channel;
  Timestamp final_visible = 0;
  Timestamp history_floor = 0;  // checkpoint-file compression bound

  if (crash) {
    // Incarnation 1: loses its feed mid-replay (the crash injector), drains
    // what it received, records its visibility checkpoint, and dies.
    const std::size_t cut =
        std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   plan.crash_frac *
                   static_cast<double>(channel.delivered().size())));
    DstChannel::Source source = channel.MakeSource(
        0, std::min(cut, channel.delivered().size() - 1));
    const Timestamp checkpoint =
        RunIncarnation(*node, plan, &source, /*restart=*/false, primary.table,
                       plan.seed ^ salt, who, "before the crash", report);

    if (plan.crash_via_checkpoint_file) {
      // Restart path B: surviving state is rebuilt from a checkpoint file
      // (storage/checkpoint.h) in a fresh node, as a cold restart would.
      const std::string path =
          (std::filesystem::temp_directory_path() /
           ("c5_dst_" + std::to_string(plan.seed) + "_" +
            std::to_string(salt) + ".ckpt"))
              .string();
      const Status w = node->WriteCheckpoint(path);
      if (!w.ok()) {
        fail("checkpoint write failed: " + std::string(w.message()));
        return;
      }
      auto restored = std::make_unique<c5::BackupNode>(node_options);
      restored->CreateTable("dst");
      const Status l = restored->RestoreFromCheckpoint(path);
      std::filesystem::remove(path);
      if (!l.ok()) {
        fail("checkpoint load failed: " + std::string(l.message()));
        return;
      }
      if (restored->restored_timestamp() != checkpoint) {
        fail("checkpoint round trip changed the resume timestamp");
        return;
      }
      node = std::move(restored);
      // The checkpoint file stores ONE version per row (the newest at or
      // below `checkpoint`): the restored database reads exactly at and
      // above the checkpoint, but history BELOW it is compressed away.
      history_floor = checkpoint;
    }

    // Incarnation 2: resume from the checkpoint. The boundary segment is
    // redelivered (through a fresh faulty channel); idempotent apply
    // discards the overlap. An in-place restart arms the recovery
    // visibility window (BackupNode::Restart) over the dead incarnation's
    // run-ahead writes; a checkpoint-file restart has an empty window (the
    // restored state IS the checkpoint).
    std::size_t resume_seg = 0;
    while (resume_seg < num_segs &&
           primary.log.segment(resume_seg)->MaxTimestamp() <= checkpoint) {
      ++resume_seg;
    }
    if (resume_seg == num_segs) {
      // The cut landed after every pristine segment (the tail of the
      // delivered sequence was all stale duplicates): the dead incarnation
      // had already caught up, so there is nothing to resume. A
      // checkpoint-FILE restart still must START its restored node over
      // the empty tail — Start is what publishes the checkpoint timestamp
      // (otherwise the node reads at 0 and every post-run oracle below
      // would vacuously check an empty snapshot).
      if (plan.crash_via_checkpoint_file) {
        log::Log empty_tail;
        log::OfflineSegmentSource none(&empty_tail);
        node->Start(&none);
        node->WaitUntilCaughtUp();
        node->Stop();
      }
      final_visible = checkpoint;
    } else {
      // At-least-once redelivery may reach back past the checkpoint: resume
      // up to 3 segments early (seeded), so the new incarnation re-reads
      // segments wholly below the resume point its recovery window
      // publishes at once — the schedule in which releasing by
      // VisibleTimestamp() would free records its workers still read.
      resume_seg -= std::min<std::size_t>(resume_seg, (plan.seed ^ salt) % 4);
      resume_channel = std::make_unique<DstChannel>(
          &primary.log, resume_seg, num_segs, plan, salt ^ 0xC2A54ull,
          hooks.drop_txn_segment);
      Absorb(*resume_channel, report);
      if (!resume_channel->error().empty()) {
        fail("resume channel: " + resume_channel->error());
        return;
      }
      DstChannel::Source resume_source = resume_channel->MakeSource();
      const bool in_place = !plan.crash_via_checkpoint_file;
      final_visible = RunIncarnation(*node, plan, &resume_source, in_place,
                                     primary.table,
                                     plan.seed ^ salt ^ 0xC2A54ull, who,
                                     "after the restart", report);
      ++report->crash_restarts;
      if (node->reader().RecoveryWindowClosed()) {
        ++report->recovery_windows_closed;
      } else {
        fail("recovery window (" +
             std::to_string(node->reader().RecoveryResume()) + ", " +
             std::to_string(node->reader().RecoveryFloor()) +
             ") still open after catch-up");
      }
    }
  } else {
    DstChannel::Source source = channel.MakeSource();
    final_visible =
        RunIncarnation(*node, plan, &source, /*restart=*/false, primary.table,
                       plan.seed ^ salt, who, "during replay", report);
  }

  if (hooks.gc_past_horizon) {
    // Planted violation: a GC that ignores the reader/visibility horizon
    // reclaims versions a prefix reader could still observe. The quartile
    // prefix digests below must flag the loss.
    node->db().CollectGarbage(primary.log.MaxTimestamp());
  }

  CheckReplicaState(who, primary, primary_digest, *node, final_visible,
                    gc_active, history_floor, boundaries, report);

  if (router != nullptr) {
    // Cross-shard router oracle, EPOCH-AWARE: the replica applied only its
    // shard's log, so every key its index materialized must route back to
    // this shard at the router's CURRENT epoch — or be tombstone residue of
    // a key that legitimately lived here at an earlier epoch (a committed
    // migration deletes the source copy at cutover; an aborted one deletes
    // the destination copy). A LIVE value on a non-owner means a write
    // leaked across the partition, or a migration left a key dual-owned.
    // Two passes: ForEach holds the index shard's non-reentrant lock, and
    // the residue check re-enters the index through ReadKeyAt.
    std::vector<Key> observed;
    node->db().index(primary.table).ForEach(
        [&](Key key, RowId, Timestamp) { observed.push_back(key); });
    for (const Key key : observed) {
      ++report->router_checks;
      const std::size_t owner = router->ShardOf(primary.table, key);
      if (owner == shard_index) continue;
      const storage::Version* v =
          node->db().ReadKeyAt(primary.table, key, kMaxTimestamp);
      if (v == nullptr || v->deleted) continue;  // migrated-away residue
      fail("router oracle: key " + std::to_string(key) +
           " live on shard " + std::to_string(shard_index) +
           " but routes to shard " + std::to_string(owner) + " at epoch " +
           std::to_string(router->CurrentEpoch()));
    }
  }
}

// ---- Mid-replay promotion scenario -----------------------------------------

void RunPromotionScenario(const DstPlan& plan, DstPrimary& primary,
                          DstReport* report) {
  auto fail = [&](std::string why) {
    report->violations.push_back("promotion: " + std::move(why));
  };
  const std::size_t num_segs = primary.log.NumSegments();
  const std::size_t prefix = std::min(
      num_segs,
      std::max<std::size_t>(
          1, static_cast<std::size_t>(plan.promote_frac *
                                      static_cast<double>(num_segs))));

  DstChannel channel(&primary.log, 0, prefix, plan, 0x9E57ull);
  Absorb(channel, report);
  if (!channel.error().empty()) {
    fail("channel: " + channel.error());
    return;
  }

  // The victim replays the faulted prefix with readers attached, drains,
  // and is promoted with transactions still outstanding above the prefix.
  c5::BackupOptions victim_options;
  victim_options.protocol = ProtocolKind::kC5;
  victim_options.id = "promotion/victim";
  victim_options.protocol_options.num_workers = ReplayWorkers(plan);
  victim_options.protocol_options.snapshot_interval =
      std::chrono::microseconds(100);
  c5::BackupNode victim(victim_options);
  victim.CreateTable("dst");
  DstChannel::Source source = channel.MakeSource();
  const Timestamp applied = RunIncarnation(
      victim, plan, &source, /*restart=*/false, primary.table,
      plan.seed ^ 0x9E57ull, "promotion", "before promotion", report);
  if (applied == 0) {
    fail("victim applied nothing before promotion");
    return;
  }

  auto promoted = victim.Promote(plan.promote_engine);
  Rng prng(plan.seed ^ 0xD57'0000'0004ull);
  for (std::uint64_t i = 0; i < plan.promoted_txns; ++i) {
    const Status s = promoted->engine->ExecuteWithRetry([&](txn::Txn& txn) {
      return txn.Put(primary.table, 1'000'000 + i,
                     workload::EncodeIntValue(prng.Next()));
    });
    if (!s.ok()) {
      fail("promoted transaction failed: " + std::string(s.message()));
      return;
    }
  }
  log::Log new_log = promoted->collector.Coalesce();
  std::string detail;
  if (!LogWellFormed(new_log, &detail)) {
    fail("promoted log: " + detail);
  }
  if (new_log.NumRecords() == 0) {
    fail("promoted node logged nothing");
    return;
  }
  if (new_log.segment(0)->MinTimestamp() <= applied) {
    fail("promoted history does not extend the replicated prefix");
  }

  // Oracle: a single-thread replica replays the SAME prefix plus the
  // promoted node's log, serially. Post-promotion state must match.
  c5::BackupNode oracle({.protocol = ProtocolKind::kSingleThread});
  oracle.CreateTable("dst");
  log::PrefixSegmentSource prefix_source(&primary.log, prefix);
  log::OfflineSegmentSource new_source(&new_log);
  ha::ChainedSegmentSource chained({&prefix_source, &new_source});
  oracle.Start(&chained);
  oracle.WaitUntilCaughtUp();
  oracle.Stop();

  if (StateDigest(victim.db(), kMaxTimestamp) !=
      StateDigest(oracle.db(), kMaxTimestamp)) {
    fail("post-promotion state diverges from the single-thread oracle");
  }
}

// ---- Sharded scenario (invariants 9 and 10) ---------------------------------

// Phased primary build for the reshard scenario (invariant 10): both shard
// primaries run live while a seed-chosen slice of shard 0's keys migrates to
// shard 1 through the router's real epoch machinery. The phases mirror
// ShardedCluster::Rebalance, serialized onto the harness thread so the whole
// migration — copy, tail catch-up, fence, cutover or abort — is a pure
// function of the seed:
//   phase 1  both shards execute their epoch-0 partitions
//   copy     moving keys bulk-copied from the source primary's state
//   phase 2  both shards keep executing epoch-0 partitions (the source's
//            writes to moving keys are the tail the migration must catch up)
//   drain    moving keys re-mirrored newest-wins (pre-fence tail catch-up)
//   fence    BeginFence over the moving tokens; writes that would land on
//            fenced keys queue (a routed writer backs off and retries)
//   drain    final catch-up under the fence (source quiescent for the set)
//   decide   commit: delete source residue, CommitPlan (epoch bump), apply
//            queued writes once on the NEW owner — or abort: AbortFence,
//            delete the destination copies, apply queued writes once on the
//            still-owner source
//   phase 3  both shards execute partitions recomputed at the CURRENT epoch
// The migration's writes flow through each shard's engine, so they are in
// the shards' logs: the downstream faulty channels, crash/restart, and every
// state oracle replay the migration itself.
void BuildPrimariesWithReshard(const DstPlan& plan, ShardRouter& router,
                               const std::vector<std::vector<Key>>& shard_keys,
                               std::array<DstPrimary, 2>* primaries,
                               DstReport* report) {
  constexpr std::size_t kSrc = 0;
  constexpr std::size_t kDst = 1;
  DstPrimary& src = (*primaries)[kSrc];
  DstPrimary& dst = (*primaries)[kDst];
  std::array<std::vector<Rng>, 2> rngs;
  for (std::size_t s = 0; s < 2; ++s) {
    SetupPrimary(plan, &(*primaries)[s]);
    rngs[s] = WorkloadRngs(plan, /*workload_salt=*/0x51A2D'0000ull * (s + 1));
  }

  const std::uint64_t t1 = plan.txns_per_client / 3;
  const std::uint64_t t2 = plan.txns_per_client / 3;
  const std::uint64_t t3 = plan.txns_per_client - t1 - t2;

  for (std::size_t s = 0; s < 2; ++s) {
    RunRound(plan, &(*primaries)[s], rngs[s], shard_keys[s], t1);
  }

  // The moving slice: a seeded shuffle of shard 0's partition, first
  // `reshard_frac` of it. One ShardMove per key — the DST table has no
  // partition extractor, so each key is its own token.
  Rng mrng(plan.seed ^ 0xD57'0000'0005ull);
  std::vector<Key> moving = shard_keys[kSrc];
  for (std::size_t i = moving.size(); i > 1; --i) {
    std::swap(moving[i - 1], moving[mrng.Uniform(i)]);
  }
  moving.resize(std::max<std::size_t>(
      1, static_cast<std::size_t>(plan.reshard_frac *
                                  static_cast<double>(moving.size()))));
  std::sort(moving.begin(), moving.end());

  MigrationPlan mplan;
  mplan.reserve(moving.size());
  for (const Key k : moving) {
    ShardMove move;
    move.table = src.table;
    move.token = k;
    move.from = kSrc;
    move.to = kDst;
    mplan.push_back(move);
  }
  const Status valid = router.ValidatePlan(mplan);
  if (!valid.ok()) {
    report->violations.push_back("reshard: router rejected the plan: " +
                                 std::string(valid.message()));
    return;
  }
  ++report->migrations_started;

  // Mirrors one moving key's newest source state onto the destination:
  // live value -> Put, tombstone/absent -> Delete (kNotFound tolerated —
  // the destination may never have seen the key). Serial execution means
  // the source read at kMaxTimestamp is settled committed state.
  const auto mirror = [&](Key k, bool initial_copy) {
    const storage::Version* v = src.db.ReadKeyAt(src.table, k, kMaxTimestamp);
    if (v != nullptr && !v->deleted) {
      const Value value(v->value());
      (void)dst.engine->ExecuteWithRetry([&](txn::Txn& txn) {
        return txn.Put(dst.table, k, value);
      });
    } else if (!initial_copy) {
      (void)dst.engine->ExecuteWithRetry([&](txn::Txn& txn) {
        const Status s = txn.Delete(dst.table, k);
        return s.code() == StatusCode::kNotFound ? Status::Ok() : s;
      });
    }
  };
  const auto tolerant_delete = [](DstPrimary& p, Key k) {
    (void)p.engine->ExecuteWithRetry([&](txn::Txn& txn) {
      const Status s = txn.Delete(p.table, k);
      return s.code() == StatusCode::kNotFound ? Status::Ok() : s;
    });
  };

  for (const Key k : moving) mirror(k, /*initial_copy=*/true);

  for (std::size_t s = 0; s < 2; ++s) {
    RunRound(plan, &(*primaries)[s], rngs[s], shard_keys[s], t2);
  }
  for (const Key k : moving) mirror(k, /*initial_copy=*/false);

  const Status fenced = router.BeginFence(mplan);
  if (!fenced.ok()) {
    report->violations.push_back("reshard: fence rejected: " +
                                 std::string(fenced.message()));
    return;
  }
  // Writes arriving while the fence is up: a routed writer backs off until
  // the fence drops, then lands on whichever shard owns the key THEN. The
  // serial model queues them and applies each exactly once post-decision.
  struct QueuedWrite {
    Key key;
    Value value;
  };
  std::vector<QueuedWrite> queued;
  const std::uint64_t n_queued = 1 + mrng.Uniform(4);
  for (std::uint64_t i = 0; i < n_queued; ++i) {
    queued.push_back(QueuedWrite{moving[mrng.Uniform(moving.size())],
                                 workload::EncodeIntValue(mrng.Next())});
  }
  for (const Key k : moving) mirror(k, /*initial_copy=*/false);

  const auto apply_queued = [&](DstPrimary& owner) {
    for (const QueuedWrite& w : queued) {
      (void)owner.engine->ExecuteWithRetry([&](txn::Txn& txn) {
        return txn.Put(owner.table, w.key, w.value);
      });
    }
  };
  if (plan.reshard_abort) {
    // Clean rollback: the fence drops with the epoch unchanged, the
    // destination copies are deleted (a live copy there would be dual
    // ownership), and the queued writes land on the still-owner source.
    router.AbortFence();
    for (const Key k : moving) tolerant_delete(dst, k);
    apply_queued(src);
    ++report->migrations_aborted;
  } else {
    // Cutover: residue deleted on the source, the plan becomes a new
    // placement epoch, and the queued writes land on the new owner.
    for (const Key k : moving) tolerant_delete(src, k);
    (void)router.CommitPlan(mplan);
    apply_queued(dst);
    ++report->migrations_completed;
  }

  // Phase 3 runs over partitions recomputed at the CURRENT epoch: after a
  // commit the moved keys are written on shard 1; after an abort the
  // epoch-0 partition is unchanged.
  std::vector<std::vector<Key>> post_keys(2);
  for (Key k = 0; k < plan.keyspace; ++k) {
    post_keys[router.ShardOf(src.table, k)].push_back(k);
  }
  for (std::size_t s = 0; s < 2; ++s) {
    if (post_keys[s].empty()) continue;
    RunRound(plan, &(*primaries)[s], rngs[s], post_keys[s], t3);
  }

  for (std::size_t s = 0; s < 2; ++s) {
    (*primaries)[s].log = (*primaries)[s].collector->Coalesce();
  }
}

// Two independent shard groups: a seeded router partitions the keyspace,
// each shard runs its own serial primary over its partition, its own faulty
// channel (salted per shard, so fault schedules are independent), and one
// convergence replica drawn from the plan's replica pool (crash/restart
// allowed on shard 0). Invariants 1-8 run per shard against that shard's
// primary; the router oracle closes the loop across shards. When the plan
// drew a reshard, a live migration runs between the two primaries
// mid-workload (invariant 10) and is replayed — faults, crash, and all — by
// the per-shard replicas, with the router oracle running epoch-aware.
void RunShardedScenario(const DstPlan& plan, const DstHooks& hooks,
                        DstReport* report) {
  constexpr std::size_t kShards = 2;
  ShardRouter router(kShards, plan.router_seed);

  std::vector<std::vector<Key>> shard_keys(kShards);
  for (Key k = 0; k < plan.keyspace; ++k) {
    shard_keys[router.ShardOf(/*table=*/0, k)].push_back(k);
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    if (shard_keys[s].empty()) {
      // With >= 32 keys and a mixing hash this is astronomically unlikely;
      // flagging (rather than masking) keeps the router's balance honest.
      report->violations.push_back("router left shard " + std::to_string(s) +
                                   " with no keys");
      return;
    }
  }

  std::array<DstPrimary, kShards> primaries;
  if (plan.reshard) {
    BuildPrimariesWithReshard(plan, router, shard_keys, &primaries, report);
    if (!report->violations.empty()) return;
  } else {
    for (std::size_t s = 0; s < kShards; ++s) {
      BuildPrimary(plan, &primaries[s],
                   /*workload_salt=*/0x51A2D'0000ull * (s + 1),
                   &shard_keys[s]);
    }
  }

  report->primary_digest = 0xcbf29ce484222325ull;
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::string prefix = "s" + std::to_string(s) + "/";
    DstPrimary& primary = primaries[s];
    report->log_records += primary.log.NumRecords();
    report->log_txns += primary.log.CountTransactions();
    std::string detail;
    if (!LogWellFormed(primary.log, &detail)) {
      report->violations.push_back(prefix + "primary log: " + detail);
      continue;
    }
    const std::vector<Timestamp> boundaries = TxnBoundaries(primary.log);
    if (boundaries.empty()) {
      report->violations.push_back(prefix +
                                   "primary produced an empty history");
      continue;
    }
    const std::uint64_t shard_digest = StateDigest(primary.db, kMaxTimestamp);
    report->primary_digest =
        (report->primary_digest * 0x100000001b3ull) ^ shard_digest;

    // One convergence replica per shard; the plan's pool supplies a C5
    // variant for shard 0 and the wildcard protocol for shard 1, so every
    // pairing still shows up across a sweep.
    RunConvergenceReplica(plan, plan.replicas[s % plan.replicas.size()],
                          /*allow_crash=*/s == 0, primary, shard_digest,
                          boundaries, /*salt=*/0x200 + s, hooks, prefix,
                          &router, s, report);
  }
}

}  // namespace

DstReport RunDst(std::uint64_t seed, const DstHooks& hooks) {
  DstPlan plan = DstPlan::FromSeed(seed);
  // The sharded scenario runs exactly two groups; clamp so shards_run never
  // claims a wider scenario than actually ran.
  if (hooks.force_shards > 0) plan.shards = std::min(hooks.force_shards, 2);
  if (hooks.force_replay_workers > 0) {
    plan.replay_workers = hooks.force_replay_workers;
  }
  if (hooks.force_gc_every > 0) plan.gc_every = hooks.force_gc_every;
  if (hooks.armed()) {
    // Self-test mode: strip the stochastic scenarios so the planted
    // violation is the only signal the checker can fire on.
    plan.gc_every = 0;
    plan.crash = false;
    plan.promote = false;
    plan.shards = 1;
    plan.reshard = false;
  }

  DstReport report;
  report.seed = seed;
  report.plan = plan;
  report.schedule_digest = 0xcbf29ce484222325ull;
  report.shards_run = plan.shards;

  if (plan.shards > 1) {
    RunShardedScenario(plan, hooks, &report);
    return report;
  }

  DstPrimary primary;
  BuildPrimary(plan, &primary);
  report.log_records = primary.log.NumRecords();
  report.log_txns = primary.log.CountTransactions();
  std::string detail;
  if (!LogWellFormed(primary.log, &detail)) {
    report.violations.push_back("primary log: " + detail);
    return report;
  }
  const std::vector<Timestamp> boundaries = TxnBoundaries(primary.log);
  if (boundaries.empty()) {
    report.violations.push_back("primary produced an empty history");
    return report;
  }
  report.primary_digest = StateDigest(primary.db, kMaxTimestamp);

  for (std::size_t i = 0; i < plan.replicas.size(); ++i) {
    RunConvergenceReplica(plan, plan.replicas[i], /*allow_crash=*/i == 0,
                          primary, report.primary_digest, boundaries,
                          /*salt=*/0x100 + i, hooks, /*id_prefix=*/"",
                          /*router=*/nullptr, /*shard_index=*/0, &report);
  }
  if (plan.promote) {
    RunPromotionScenario(plan, primary, &report);
  }
  return report;
}

}  // namespace c5::sim
