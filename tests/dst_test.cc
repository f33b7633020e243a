// Deterministic fault-injection simulation (DST) sweeps.
//
// Every test prints the seed on failure; rerun a single scenario with
//   C5_DST_SEED=<n> ./dst_test
// The sweep size is 64 seeds by default; C5_DST_SEED_COUNT overrides it
// (the sanitizer lanes in scripts/check.sh run a quick 16-seed list).

#include "sim/dst_harness.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace c5::sim {
namespace {

std::string Describe(const DstReport& r) {
  std::ostringstream os;
  os << "seed " << r.seed << ": " << r.log_txns << " txns, "
     << r.log_records << " records; wire: " << r.wire.frames_shipped
     << " frames (" << r.wire.frames_corrupted << " corrupted, "
     << r.wire.frames_truncated << " truncated, "
     << r.wire.frames_duplicated << " duplicated, " << r.wire.frames_delayed
     << " delayed, " << r.wire.frames_rejected << " rejected, "
     << r.wire.retransmits << " retransmits, "
     << r.wire.stale_dups_delivered << " stale dups delivered); "
     << (r.plan.crash ? "crash " : "") << (r.plan.promote ? "promote " : "")
     << (r.plan.gc_every > 0 ? "gc " : "") << (r.plan.use_2pl ? "2pl" : "mvtso");
  if (r.shards_run > 1) {
    os << " sharded(" << r.shards_run << ", " << r.router_checks
       << " router checks)";
    if (r.migrations_started > 0) {
      os << " reshard(" << r.migrations_completed << " committed, "
         << r.migrations_aborted << " aborted)";
    }
  }
  for (const std::string& v : r.violations) os << "\n  VIOLATION: " << v;
  os << "\n  replay: C5_DST_SEED=" << r.seed << " ./dst_test";
  return os.str();
}

std::vector<std::uint64_t> SweepSeeds() {
  if (const char* one = std::getenv("C5_DST_SEED")) {
    return {std::strtoull(one, nullptr, 10)};
  }
  std::uint64_t count = 64;
  if (const char* n = std::getenv("C5_DST_SEED_COUNT")) {
    count = std::strtoull(n, nullptr, 10);
    if (count == 0) count = 1;
  }
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::uint64_t s = 1; s <= count; ++s) seeds.push_back(s);
  return seeds;
}

TEST(DstTest, SeedSweepHoldsAllInvariants) {
  const std::vector<std::uint64_t> seeds = SweepSeeds();
  DstChannelStats total;
  std::uint64_t crashes = 0, promotions = 0, gc_runs = 0;
  std::uint64_t restarts = 0, windows_closed = 0, scan_checks = 0;
  std::uint64_t ordered_checks = 0;
  std::map<core::ProtocolKind, std::uint64_t> releases;
  for (const std::uint64_t seed : seeds) {
    const DstReport r = RunDst(seed);
    for (const auto& [kind, released] : r.releases) releases[kind] += released;
    EXPECT_TRUE(r.ok()) << Describe(r);
    // The secondary-index oracle must fire for every seed: each seed's
    // workload writes keys, so a convergence replica with zero verified
    // ordered-index bindings means the oracle silently stopped running.
    EXPECT_GT(r.ordered_index_checks, 0u) << Describe(r);
    ordered_checks += r.ordered_index_checks;
    total.frames_corrupted += r.wire.frames_corrupted;
    total.frames_truncated += r.wire.frames_truncated;
    total.frames_duplicated += r.wire.frames_duplicated;
    total.frames_delayed += r.wire.frames_delayed;
    total.frames_rejected += r.wire.frames_rejected;
    total.retransmits += r.wire.retransmits;
    total.stale_dups_delivered += r.wire.stale_dups_delivered;
    crashes += r.plan.crash ? 1 : 0;
    // The promotion scenario only runs single-shard (sharded failover is
    // cluster_test's job), so only count it where it actually ran.
    promotions += (r.plan.promote && r.shards_run == 1) ? 1 : 0;
    gc_runs += r.plan.gc_every > 0 ? 1 : 0;
    restarts += r.crash_restarts;
    windows_closed += r.recovery_windows_closed;
    scan_checks += r.scan_checks;
  }
  // Every crash/restart incarnation must end with its recovery visibility
  // window CLOSED: a restarted replica may never leave readers pinned below
  // the inherited high-water mark once it has caught up.
  EXPECT_EQ(restarts, windows_closed);
  if (seeds.size() >= 16) {
    // The sweep must actually exercise every fault class — a plan change
    // that silently zeroes a probability should fail here, not rot.
    EXPECT_GT(total.frames_corrupted, 0u);
    EXPECT_GT(total.frames_truncated, 0u);
    EXPECT_GT(total.frames_duplicated, 0u);
    EXPECT_GT(total.frames_delayed, 0u);
    EXPECT_GT(total.frames_rejected, 0u);
    EXPECT_EQ(total.frames_rejected, total.retransmits);
    EXPECT_GT(total.stale_dups_delivered, 0u);
    EXPECT_GT(crashes, 0u);
    EXPECT_GT(promotions, 0u);
    EXPECT_GT(gc_runs, 0u);
    // The sweep must actually exercise the recovery window and the
    // range-scan oracle (one scan check per convergence replica).
    EXPECT_GT(restarts, 0u);
    EXPECT_GT(scan_checks, 0u);
    EXPECT_GT(ordered_checks, 0u);
    // The release contract must be exercised by every protocol that ran:
    // under ASan the DST sources poison released records, so a premature
    // release fails the lane. Query Fresh keeps the log by design.
    for (const auto& [kind, released] : releases) {
      if (kind == core::ProtocolKind::kQueryFresh) continue;
      EXPECT_GT(released, 0u) << core::ToString(kind);
    }
  }
}

// The sharded sweep: every seed re-runs as TWO independent shard groups
// (DstHooks::force_shards pins the mode; the fault schedules, crash
// injection, and all per-shard oracles still derive from the seed). The
// cross-shard router oracle must actually fire — a sweep that never checked
// a placement would vacuously pass.
TEST(DstTest, ShardedSweepHoldsAllInvariants) {
  const std::vector<std::uint64_t> seeds = SweepSeeds();
  DstHooks sharded;
  sharded.force_shards = 2;
  ASSERT_FALSE(sharded.armed()) << "force_shards is a mode pin, not a hook";
  std::uint64_t router_checks = 0, restarts = 0, windows_closed = 0;
  std::uint64_t crashes = 0, scan_checks = 0;
  std::uint64_t started = 0, completed = 0, aborted = 0;
  for (const std::uint64_t seed : seeds) {
    const DstReport r = RunDst(seed, sharded);
    EXPECT_TRUE(r.ok()) << Describe(r);
    EXPECT_EQ(r.shards_run, 2) << Describe(r);
    // Secondary-index consistency holds per shard group too.
    EXPECT_GT(r.ordered_index_checks, 0u) << Describe(r);
    // The migration ledger balances per seed: every migration started
    // either commits through cutover or aborts cleanly — none may vanish
    // half-applied (invariant 10).
    EXPECT_EQ(r.migrations_started,
              r.migrations_completed + r.migrations_aborted)
        << Describe(r);
    // A seeded migration must be AUDITED: the epoch-aware router oracle has
    // to actually check placements for a run that resharded, or a cutover
    // that stranded keys would pass vacuously.
    if (r.migrations_started > 0) {
      EXPECT_GT(r.router_checks, 0u) << Describe(r);
    }
    router_checks += r.router_checks;
    restarts += r.crash_restarts;
    windows_closed += r.recovery_windows_closed;
    crashes += r.plan.crash ? 1 : 0;
    scan_checks += r.scan_checks;
    started += r.migrations_started;
    completed += r.migrations_completed;
    aborted += r.migrations_aborted;
  }
  // Recovery windows must close on the sharded crash path too.
  EXPECT_EQ(restarts, windows_closed);
  // The router oracle must be asserted (many times) per sweep, and the
  // sharded mode must keep exercising the crash and scan oracles.
  EXPECT_GT(router_checks, 0u);
  EXPECT_EQ(started, completed + aborted);
  if (seeds.size() >= 16) {
    EXPECT_GT(crashes, 0u);
    EXPECT_GT(restarts, 0u);
    EXPECT_GT(scan_checks, 0u);
    // The migration battery must exercise BOTH outcomes: epoch-bumping
    // cutovers and clean fence aborts (a probability regression that
    // silently kills either path fails here, not rots).
    EXPECT_GT(completed, 0u);
    EXPECT_GT(aborted, 0u);
  }
}

// The replay-worker sweep: every seed re-runs with a pinned worker count
// cycling through {1, 2, 4} (DstHooks::force_replay_workers is a mode pin,
// like force_shards), so the partitioned-batch pipeline's epoch-batched
// visibility holds all invariants — watermark monotonicity, recovery-window
// closure, prefix-complete snapshots, state digests — at every width,
// including the degenerate single worker and oversubscription on a 1-core
// host.
TEST(DstTest, ReplayWorkerSweepHoldsAllInvariants) {
  const std::vector<std::uint64_t> seeds = SweepSeeds();
  constexpr int kWidths[] = {1, 2, 4};
  std::uint64_t restarts = 0, windows_closed = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    DstHooks pinned;
    pinned.force_replay_workers = kWidths[i % 3];
    ASSERT_FALSE(pinned.armed())
        << "force_replay_workers is a mode pin, not a hook";
    const DstReport r = RunDst(seeds[i], pinned);
    EXPECT_TRUE(r.ok()) << "replay_workers=" << kWidths[i % 3] << "; "
                        << Describe(r);
    restarts += r.crash_restarts;
    windows_closed += r.recovery_windows_closed;
  }
  // Crash/restart must stay sound when the restarted node re-applies with a
  // different effective worker count than the segments were first applied
  // with (the override survives Restart).
  EXPECT_EQ(restarts, windows_closed);
}

// The GC sweep: every seed re-runs with garbage collection on every
// snapshot interval (DstHooks::force_gc_every is a mode pin, like
// force_shards), so each replica with workers truncates and reclaims
// versions on its maintenance thread while the replay workers apply and the
// sampler thread reads. A reclaimed version that is still reachable is the
// failure that matters; the ASan lane turns it into a crash.
TEST(DstTest, GcEveryPassSweepHoldsAllInvariants) {
  const std::vector<std::uint64_t> seeds = SweepSeeds();
  DstHooks gc;
  gc.force_gc_every = 1;
  ASSERT_FALSE(gc.armed()) << "force_gc_every is a mode pin, not a hook";
  std::uint64_t restarts = 0, windows_closed = 0;
  for (const std::uint64_t seed : seeds) {
    const DstReport r = RunDst(seed, gc);
    EXPECT_TRUE(r.ok()) << "gc_every=1; " << Describe(r);
    EXPECT_EQ(r.plan.gc_every, 1) << Describe(r);
    restarts += r.crash_restarts;
    windows_closed += r.recovery_windows_closed;
  }
  EXPECT_EQ(restarts, windows_closed);
}

TEST(DstTest, SameSeedReplaysBitForBit) {
  const DstReport a = RunDst(424242);
  const DstReport b = RunDst(424242);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest)
      << "fault schedule not a pure function of the seed";
  EXPECT_EQ(a.primary_digest, b.primary_digest)
      << "workload not a pure function of the seed";
  EXPECT_EQ(a.log_records, b.log_records);
  EXPECT_EQ(a.log_txns, b.log_txns);
  EXPECT_EQ(a.wire.frames_shipped, b.wire.frames_shipped);
  EXPECT_EQ(a.wire.frames_rejected, b.wire.frames_rejected);
  EXPECT_EQ(a.wire.delivered_segments, b.wire.delivered_segments);
  EXPECT_TRUE(a.ok()) << Describe(a);
  EXPECT_TRUE(b.ok()) << Describe(b);
}

// Same property for a pinned-sharded run with a migration in it: the whole
// reshard — moving-set choice, copy, fence, queued writes, outcome — must be
// a pure function of the seed.
TEST(DstTest, ShardedReshardReplaysBitForBit) {
  DstHooks sharded;
  sharded.force_shards = 2;
  // Find a seed whose plan drew a reshard (the draw is itself seeded, so
  // this scan is deterministic).
  std::uint64_t seed = 1;
  while (!DstPlan::FromSeed(seed).reshard) ++seed;
  const DstReport a = RunDst(seed, sharded);
  const DstReport b = RunDst(seed, sharded);
  EXPECT_EQ(a.migrations_started, 1u) << Describe(a);
  EXPECT_EQ(a.migrations_started, b.migrations_started);
  EXPECT_EQ(a.migrations_completed, b.migrations_completed);
  EXPECT_EQ(a.migrations_aborted, b.migrations_aborted);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest)
      << "reshard fault schedule not a pure function of the seed";
  EXPECT_EQ(a.primary_digest, b.primary_digest)
      << "reshard workload/migration not a pure function of the seed";
  EXPECT_EQ(a.log_records, b.log_records);
  EXPECT_EQ(a.router_checks, b.router_checks);
  EXPECT_TRUE(a.ok()) << Describe(a);
  EXPECT_TRUE(b.ok()) << Describe(b);
}

// The harness must be able to catch a real prefix violation: a transaction
// silently dropped from the stream (re-framed as a VALID segment with
// contiguous base_seq, so only the state oracles can notice).
TEST(DstTest, PlantedDroppedTransactionIsCaught) {
  DstHooks hooks;
  hooks.drop_txn_segment = 1 << 20;  // clamped to the last segment
  const DstReport r = RunDst(7, hooks);
  ASSERT_FALSE(r.ok())
      << "checker missed a silently dropped transaction; " << Describe(r);
  bool state_flagged = false;
  for (const std::string& v : r.violations) {
    if (v.find("diverges") != std::string::npos ||
        v.find("prefix") != std::string::npos) {
      state_flagged = true;
    }
  }
  EXPECT_TRUE(state_flagged) << Describe(r);
}

// ... and a GC that ignores the reader/visibility horizon: reclaiming
// history a prefix reader could still observe must trip the quartile
// prefix digests.
TEST(DstTest, PlantedGcPastHorizonIsCaught) {
  DstHooks hooks;
  hooks.gc_past_horizon = true;
  const DstReport r = RunDst(11, hooks);
  ASSERT_FALSE(r.ok())
      << "checker missed GC past the reader horizon; " << Describe(r);
  bool boundary_flagged = false;
  for (const std::string& v : r.violations) {
    if (v.find("prefix boundary") != std::string::npos) {
      boundary_flagged = true;
    }
  }
  EXPECT_TRUE(boundary_flagged) << Describe(r);
}

// Sanity on the hook plumbing itself: an unarmed hook set — including a
// non-default sentinel that is still below the armed threshold — must
// change nothing relative to a plain run (armed hooks normalize the plan,
// so accidental arming would show up as a digest difference here).
TEST(DstTest, UnarmedHooksAreInert) {
  DstHooks unarmed;
  unarmed.drop_txn_segment = -7;  // any negative value is unarmed
  ASSERT_FALSE(unarmed.armed());
  const DstReport plain = RunDst(5);
  const DstReport hooked = RunDst(5, unarmed);
  EXPECT_EQ(plain.schedule_digest, hooked.schedule_digest);
  EXPECT_EQ(plain.primary_digest, hooked.primary_digest);
  EXPECT_EQ(plain.violations.size(), hooked.violations.size());
}

}  // namespace
}  // namespace c5::sim
