#include "sim/dst_plan.h"

#include "common/rng.h"

namespace c5::sim {

namespace {

// All eight correctness-preserving protocols (kKuaFuUnconstrained is a
// diagnostic that intentionally violates prefix consistency, so the DST
// invariant checker would — correctly — reject it).
constexpr core::ProtocolKind kPool[] = {
    core::ProtocolKind::kC5,
    core::ProtocolKind::kC5MyRocks,
    core::ProtocolKind::kC5Queue,
    core::ProtocolKind::kPageGranularity,
    core::ProtocolKind::kTableGranularity,
    core::ProtocolKind::kKuaFu,
    core::ProtocolKind::kSingleThread,
    core::ProtocolKind::kQueryFresh,
};

}  // namespace

DstPlan DstPlan::FromSeed(std::uint64_t seed) {
  // A distinct stream from the workload/channel Rngs so adding plan fields
  // never perturbs their draws.
  Rng rng(seed ^ 0xD57'0000'0001ull);
  DstPlan p;
  p.seed = seed;

  p.use_2pl = rng.NextDouble() < 0.25;
  p.clients = 2 + static_cast<int>(rng.Uniform(2));           // 2-3
  p.txns_per_client = 30 + rng.Uniform(31);                   // 30-60
  p.keyspace = 32 + rng.Uniform(33);                          // 32-64
  p.segment_capacity = 16 + rng.Uniform(17);                  // 16-32

  p.p_corrupt = 0.05 + 0.15 * rng.NextDouble();
  p.p_truncate = 0.05 + 0.10 * rng.NextDouble();
  p.p_duplicate = 0.05 + 0.15 * rng.NextDouble();
  p.p_delay = 0.10 + 0.20 * rng.NextDouble();
  p.displace_window = 2 + static_cast<int>(rng.Uniform(5));   // 2-6
  p.p_deliver_stale_dup = rng.NextDouble();

  // Two protocols per seed: one C5 variant (the paper's designs) plus one
  // drawn from the whole pool, so every pairing shows up across a sweep.
  constexpr core::ProtocolKind kC5Variants[] = {
      core::ProtocolKind::kC5,
      core::ProtocolKind::kC5MyRocks,
      core::ProtocolKind::kC5Queue,
  };
  p.replicas.push_back(kC5Variants[rng.Uniform(3)]);
  p.replicas.push_back(kPool[rng.Uniform(8)]);

  p.num_workers = 2 + static_cast<int>(rng.Uniform(2));       // 2-3
  // One draw, so later fields keep their values for older seeds.
  const double gc_draw = rng.NextDouble();
  p.gc_every = gc_draw < 0.15 ? 1 : (gc_draw < 0.3 ? 3 : 0);

  p.crash = rng.NextDouble() < 0.4;
  p.crash_frac = 0.25 + 0.5 * rng.NextDouble();
  p.crash_via_checkpoint_file = p.crash && rng.NextDouble() < 0.5;

  p.promote = rng.NextDouble() < 0.4;
  p.promote_frac = 0.3 + 0.5 * rng.NextDouble();
  p.promote_engine = rng.NextDouble() < 0.5
                         ? ha::EngineKind::kMvtso
                         : ha::EngineKind::kTwoPhaseLocking;
  p.promoted_txns = 8 + rng.Uniform(17);                      // 8-24

  // Drawn LAST so earlier fields keep their values for pre-sharding seeds
  // (replay continuity). The dedicated sharded sweep in dst_test pins
  // shards = 2 via DstHooks::force_shards regardless of this draw.
  p.shards = rng.NextDouble() < 0.35 ? 2 : 1;
  p.router_seed = rng.Next();

  // Drawn after shards/router_seed, same continuity rule: pre-reshard seeds
  // replay their historical field values untouched. Reshard fires often
  // (the sharded sweep pins shards = 2, and the migration battery needs
  // both commit and abort outcomes within a 16-seed sweep).
  p.reshard = rng.NextDouble() < 0.65;
  p.reshard_frac = 0.15 + 0.35 * rng.NextDouble();  // 15-50% of shard 0
  p.reshard_abort = rng.NextDouble() < 0.30;

  // Drawn after the reshard block, same continuity rule: pre-multi-worker
  // seeds replay their historical field values untouched. 0 (no override)
  // dominates so the num_workers draw above keeps its coverage; the
  // dedicated worker sweep in dst_test pins {1, 2, 4} via
  // DstHooks::force_replay_workers regardless of this draw.
  constexpr int kReplayWorkerChoices[] = {1, 2, 4};
  p.replay_workers = rng.NextDouble() < 0.25
                         ? kReplayWorkerChoices[rng.Uniform(3)]
                         : 0;
  return p;
}

}  // namespace c5::sim
