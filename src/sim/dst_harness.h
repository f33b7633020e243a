// Deterministic fault-injection simulation harness (DST).
//
// One seed = one adversarial scenario: a seeded mixed-operation workload is
// executed serially on a primary (MVTSO or 2PL — serial execution makes the
// log a pure function of the seed), shipped through a DstChannel that
// injects wire faults (corruption, torn tails, duplication, reordering —
// see dst_channel.h), and replayed by a seed-chosen set of replica
// protocols, optionally with a crash/restart of the first replica (resuming
// from its visibility checkpoint, sometimes through a checkpoint-file round
// trip) and a mid-replay promotion checked against a single-thread oracle.
// Replicas are constructed and read exclusively through the public API
// surface (c5::BackupNode + c5::Snapshot), so the harness also exercises
// what applications actually call.
//
// Invariants checked after every run (dst_oracle.h):
//  1. Prefix consistency: the replica's state digested at every quartile
//     transaction boundary (and at end-of-log) equals the primary's state
//     at the same timestamp — the replica's visible history is a prefix of
//     the primary's commit order.
//  2. The final visibility watermark covers the whole delivered log.
//  3. Per-row version chains are strictly ordered (idempotent apply never
//     installs duplicates, under any redelivery schedule).
//  4. Logical-snapshot oracle: reads at a prefix boundary match the §4.2
//     write-sequence semantics materialized from the log alone — including
//     keys whose row id changed (timestamp-aware index binding).
//  5. Monotonic prefix consistency for live readers: a sampler thread runs
//     Snapshot reads (point gets and ordered scans) throughout; its
//     snapshot timestamps never regress, each point get returns the
//     primary's value of the row it read at the snapshot's timestamp,
//     scans return strictly ascending keys, and its reads — which drive
//     Query Fresh's lazy instantiation and race against epoch GC — never
//     touch reclaimed memory (the ASan lane enforces that part).
//  6. Post-promotion state equals a single-thread oracle's replay of the
//     same prefix plus the promoted node's log.
//  7. Recovery visibility window: a replica restarted on surviving state
//     never publishes a snapshot inside its window (no reader can observe
//     the dead incarnation's run-ahead states), and the window is CLOSED
//     once the restarted replica is caught up.
//  8. Scan oracle: ordered range reads over the final snapshot match the
//     log materialization (range digests, not just point keys).
//  9. Sharded mode (two independent shard groups, seed-chosen — or pinned by
//     DstHooks::force_shards, as the dedicated dst_test sweep does): a
//     seeded ShardRouter partitions the keyspace, each shard runs its own
//     primary, faulty channel, and convergence replica with independent
//     per-shard fault schedules, invariants 1-8 hold per shard against that
//     shard's primary, and the cross-shard router oracle holds: every key a
//     shard's replica materialized routes to that shard.
// 10. Live reshard (sharded mode, seed-chosen): a migration of part of
//     shard 0's keyspace to shard 1 runs MID-WORKLOAD through the router's
//     epoch machinery (copy, tail catch-up, cutover write fence, epoch bump
//     — or a clean abort), concurrent with the per-shard wire faults and
//     the shard-0 crash/restart. Every migration started either commits or
//     aborts cleanly (counted in the report; dst_test asserts the ledger
//     balances over the sweep), fenced writes apply exactly once on the
//     final owner, and the router oracle runs EPOCH-AWARE: every key a
//     shard's replica materialized must route to that shard at the CURRENT
//     epoch, or be tombstone residue of a key that migrated away (a LIVE
//     value on a non-owner — lost, dual-owned, or stale-served — is a
//     violation).
//
// Failures print the seed — and the replica's stable instance id
// ("s1/c5[1]"), so a multi-shard violation names the exact node that
// diverged; rerunning with C5_DST_SEED=<seed> reproduces the fault schedule
// bit for bit.

#ifndef C5_SIM_DST_HARNESS_H_
#define C5_SIM_DST_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/dst_channel.h"
#include "sim/dst_plan.h"

namespace c5::sim {

// Self-test hooks: deliberately break an invariant so tests can prove the
// checker catches it. RunDst normalizes the plan when a hook is armed
// (GC/crash/promotion off) so the planted violation is the only signal.
struct DstHooks {
  // Silently drop the last transaction of this segment (clamped to the last
  // segment; the channel renumbers base_seq so only state oracles can tell).
  int drop_txn_segment = -1;
  // After catch-up, run storage GC with a horizon ABOVE retained prefix
  // boundaries — modeling a GC that ignores the reader horizon guard.
  bool gc_past_horizon = false;

  // Mode pin, NOT a planted bug (excluded from armed()): overrides the
  // plan's seed-chosen shard count. The dedicated sharded sweep in dst_test
  // pins 2 so every seed exercises the two-shard scenario and the
  // cross-shard router oracle. 0: the plan decides. Values above 2 clamp
  // to 2 (the sharded scenario runs exactly two groups).
  int force_shards = 0;

  // Mode pin, NOT a planted bug (excluded from armed()): overrides the
  // plan's replay_workers draw so the dedicated worker sweep in dst_test
  // can pin every width in {1, 2, 4} across the seed battery. 0: the plan
  // decides.
  int force_replay_workers = 0;

  // Mode pin, NOT a planted bug (excluded from armed()): overrides the
  // plan's gc_every draw. The dedicated GC sweep in dst_test pins 1, so every
  // replica with workers collects garbage on every snapshot interval while
  // the sampler reads. 0: the plan decides.
  int force_gc_every = 0;

  bool armed() const { return drop_txn_segment >= 0 || gc_past_horizon; }
};

struct DstReport {
  std::uint64_t seed = 0;
  DstPlan plan;
  DstChannelStats wire;               // summed over every channel built
  std::uint64_t schedule_digest = 0;  // mixed over every channel built
  std::uint64_t primary_digest = 0;   // primary state at end of history
  std::uint64_t log_records = 0;
  std::uint64_t log_txns = 0;
  // Recovery-window accounting: how many crash/restart incarnations ran,
  // and how many of their windows were closed at catch-up. dst_test asserts
  // these are equal across the sweep (and nonzero overall).
  std::uint64_t crash_restarts = 0;
  std::uint64_t recovery_windows_closed = 0;
  // Range-scan oracle executions (one per convergence replica).
  std::uint64_t scan_checks = 0;
  // Ordered-index consistency oracle: bindings verified across every
  // convergence replica (dst_oracle.h CheckOrderedIndexOracle). dst_test
  // asserts this is nonzero per seed — the oracle must actually fire.
  std::uint64_t ordered_index_checks = 0;
  // Sharded mode: how many shard groups ran (1 = the classic scenario), and
  // how many (replica, key) placements the cross-shard router oracle
  // checked — every key a shard's replica materialized must route to that
  // shard. dst_test asserts router_checks > 0 over the sharded sweep.
  int shards_run = 1;
  std::uint64_t router_checks = 0;
  // Reshard accounting (invariant 10): migrations the sharded scenario
  // started, drove through cutover, or cleanly rolled back. dst_test
  // asserts started == completed + aborted over the sweep, with BOTH
  // outcomes represented (no migration may vanish half-applied).
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t migrations_aborted = 0;
  // Delivered segments each protocol's replicas released back to their DST
  // sources (which poison released records under ASan), keyed by every
  // protocol that ran. dst_test asserts each but Query Fresh's (which keeps
  // the log by design) is nonzero over the sweep.
  std::map<core::ProtocolKind, std::uint64_t> releases;
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

DstReport RunDst(std::uint64_t seed, const DstHooks& hooks = {});

}  // namespace c5::sim

#endif  // C5_SIM_DST_HARNESS_H_
