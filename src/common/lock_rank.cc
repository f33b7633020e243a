#include "common/lock_rank.h"

#include <cstdio>
#include <cstdlib>

namespace c5 {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kShardGate:
      return "ShardGate";
    case LockRank::kClusterState:
      return "ClusterState";
    case LockRank::kRouter:
      return "Router";
    case LockRank::kCollector:
      return "Collector";
    case LockRank::kTxnLockShard:
      return "TxnLockShard";
    case LockRank::kReplicaState:
      return "ReplicaState";
    case LockRank::kQueue:
      return "Queue";
    case LockRank::kGc:
      return "Gc";
    case LockRank::kStorage:
      return "Storage";
    case LockRank::kIndexShard:
      return "IndexShard";
    case LockRank::kEpochReclaim:
      return "EpochReclaim";
    case LockRank::kEpochRetired:
      return "EpochRetired";
    case LockRank::kArenaShard:
      return "ArenaShard";
    case LockRank::kArenaFree:
      return "ArenaFree";
    case LockRank::kStats:
      return "Stats";
    case LockRank::kLeaf:
      return "Leaf";
  }
  return "?";
}

#if C5_LOCK_RANK_ENABLED

namespace lock_rank {
namespace {

struct Held {
  const void* lock;
  LockRank rank;
  bool shared;
};

// Deep enough for the worst real nesting (all shard gates shared during a
// scatter-gather read, plus the inner chain) with ample slack; blowing it
// is itself a discipline bug, so it aborts rather than wrapping.
constexpr int kMaxHeld = 64;

struct ThreadHolds {
  Held held[kMaxHeld];
  int depth = 0;
};

thread_local ThreadHolds tls_holds;

[[noreturn]] void Fail(const char* what, const void* lock, LockRank rank) {
  const ThreadHolds& t = tls_holds;
  std::fprintf(stderr,
               "[lock_rank] %s: lock %p rank %u (%s); held stack (outermost "
               "first):\n",
               what, lock, static_cast<unsigned>(rank), LockRankName(rank));
  for (int i = 0; i < t.depth; ++i) {
    std::fprintf(stderr, "[lock_rank]   #%d %p rank %u (%s)%s\n", i,
                 t.held[i].lock, static_cast<unsigned>(t.held[i].rank),
                 LockRankName(t.held[i].rank),
                 t.held[i].shared ? " [shared]" : "");
  }
  std::abort();
}

void Push(const void* lock, LockRank rank, bool shared) {
  ThreadHolds& t = tls_holds;
  if (t.depth >= kMaxHeld) Fail("held-lock stack overflow", lock, rank);
  t.held[t.depth++] = Held{lock, rank, shared};
}

}  // namespace

void OnAcquire(const void* lock, LockRank rank, bool shared) {
  ThreadHolds& t = tls_holds;
  for (int i = 0; i < t.depth; ++i) {
    if (t.held[i].lock == lock) {
      Fail("self-reentry (lock already held by this thread)", lock, rank);
    }
  }
  if (t.depth > 0) {
    const Held& top = t.held[t.depth - 1];
    const bool shared_peer =
        shared && top.shared && top.rank == rank;  // rule 2's exception
    if (rank <= top.rank && !shared_peer) {
      Fail("rank inversion (acquiring at or below an already-held rank)",
           lock, rank);
    }
  }
  Push(lock, rank, shared);
}

void OnTryAcquire(const void* lock, LockRank rank, bool shared) {
  // A successful try-acquire is a real hold (rule 3 applies) but is exempt
  // from ordering: it could not have blocked, so it cannot deadlock.
  Push(lock, rank, shared);
}

void OnRelease(const void* lock) {
  ThreadHolds& t = tls_holds;
  for (int i = t.depth - 1; i >= 0; --i) {
    if (t.held[i].lock != lock) continue;
    // Out-of-LIFO release is allowed only within a top run of equal-rank
    // shared holds (the order of peer reader locks is meaningless).
    for (int j = i + 1; j < t.depth; ++j) {
      if (!t.held[i].shared || !t.held[j].shared ||
          t.held[j].rank != t.held[i].rank) {
        Fail("unlock out of LIFO order", lock, t.held[i].rank);
      }
    }
    for (int j = i; j + 1 < t.depth; ++j) t.held[j] = t.held[j + 1];
    --t.depth;
    return;
  }
  Fail("releasing a lock this thread does not hold", lock, LockRank::kLeaf);
}

bool HeldByThisThread(const void* lock) {
  const ThreadHolds& t = tls_holds;
  for (int i = 0; i < t.depth; ++i) {
    if (t.held[i].lock == lock) return true;
  }
  return false;
}

int HeldCount() { return tls_holds.depth; }

}  // namespace lock_rank

#endif  // C5_LOCK_RANK_ENABLED

}  // namespace c5
