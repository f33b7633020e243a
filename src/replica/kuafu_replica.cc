#include "replica/kuafu_replica.h"

#include <unordered_set>

namespace c5::replica {

KuaFuReplica::KuaFuReplica(storage::Database* db, bool unconstrained,
                           const ProtocolOptions& options, LagTracker* lag)
    : ReplicaBase(db, options, lag), unconstrained_(unconstrained) {}

void KuaFuReplica::Schedule(log::LogSegment& seg) {
  TxnNode* open = nullptr;  // transactions never span segments
  for (const log::LogRecord& rec : seg.records()) {
    if (open == nullptr) {
      nodes_.push_back(std::make_unique<TxnNode>());
      open = nodes_.back().get();
      open->txn_index = txn_index_;
    }
    open->records.push_back(&rec);
    if (!rec.last_in_txn) continue;

    // Close the transaction: wire dependencies, then release the
    // scheduler's readiness hold.
    open->commit_ts = rec.commit_ts;
    outstanding_txns_.fetch_add(1, std::memory_order_acq_rel);
    if (!unconstrained_) {
      std::unordered_set<TxnNode*> parents;
      for (const log::LogRecord* r : open->records) {
        auto it = last_writer_.find(RowName(r->table, r->row));
        if (it != last_writer_.end() && it->second != open) {
          parents.insert(it->second);
        }
        last_writer_[RowName(r->table, r->row)] = open;
      }
      // Count each edge BEFORE the parent can see the child: a parent
      // completing between TryAddChild and the increment would otherwise
      // release the child early and MaybeReady below would push it a
      // second time, finishing one transaction twice and closing the
      // ready queue with dependents still waiting.
      for (TxnNode* parent : parents) {
        open->deps.fetch_add(1, std::memory_order_acq_rel);
        if (!parent->TryAddChild(open)) {
          open->deps.fetch_sub(1, std::memory_order_acq_rel);
        }
      }
    }
    MaybeReady(open);  // removes the scheduler's +1 hold
    ++txn_index_;
    open = nullptr;
  }
}

void KuaFuReplica::WorkerLoop(int /*idx*/) {
  // Same sampling cadence as the C5 replicas, so fig6's apply_p50/p99
  // columns compare like for like. KuaFu never waits per record —
  // dependency edges gate the whole transaction — so this measures pure
  // install cost; the transaction-granularity stall shows up as
  // throughput, not here.
  ApplySampler sampler(this);
  while (auto node_opt = ready_.Pop()) {
    // One epoch guard per transaction, never across the blocking Pop.
    const auto guard = db_->epochs().Enter();
    TxnNode* node = *node_opt;
    for (const log::LogRecord* rec : node->records) {
      // Same-row writers are serialized by the dependency edges, which is
      // the per-row ordering ApplyRecord's idempotence guard relies on.
      if (!unconstrained_) {
        ApplyRecord(*rec, sampler);
        continue;
      }
      // The §7.3 diagnostic installs blindly and out of order by design.
      const std::int64_t t0 = sampler.Begin();
      EnsureRowBound(*rec);
      db_->table(rec->table).InstallCommitted(rec->row, rec->commit_ts,
                                              rec->value,
                                              rec->op == OpType::kDelete,
                                              /*allow_out_of_order=*/true);
      stats_.applied_writes.fetch_add(1, std::memory_order_relaxed);
      if (rec->last_in_txn) {
        stats_.applied_txns.fetch_add(1, std::memory_order_relaxed);
      }
      sampler.End(t0);
    }
    ReleaseDependents(node);
    // Drop the record pointers before the prefix can cover them: once
    // marked, the segment loop may release the records they point into.
    std::vector<const log::LogRecord*>().swap(node->records);
    prefix_.Mark(node->txn_index, node->commit_ts);
    FinishTxn();
  }
}

void KuaFuReplica::ReleaseDependents(TxnNode* node) {
  std::vector<TxnNode*> children;
  {
    SpinLockGuard lock(node->children_mu);
    node->completed = true;
    children.swap(node->children);
  }
  for (TxnNode* child : children) MaybeReady(child);
}

}  // namespace c5::replica
