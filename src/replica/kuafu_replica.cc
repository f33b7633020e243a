#include "replica/kuafu_replica.h"

#include <unordered_set>

namespace c5::replica {

KuaFuReplica::KuaFuReplica(storage::Database* db, bool unconstrained,
                           const ProtocolOptions& options)
    : ReplicaBase(db, options), unconstrained_(unconstrained) {}

void KuaFuReplica::Schedule(log::LogSegment& seg) {
  const std::uint64_t applied = prefix_.watermark();
  while (!nodes_.empty() && nodes_.front()->txn_index < applied) {
    nodes_.pop_front();
  }
  TxnNode* open = nullptr;  // transactions never span segments
  for (const log::LogRecord& rec : seg.records()) {
    if (open == nullptr) {
      // Every earlier transaction is handed out: ready or behind a parent.
      if (!AwaitPrefixRoom(txn_index_ + 1)) return;
      nodes_.push_back(std::make_unique<TxnNode>());
      open = nodes_.back().get();
      open->txn_index = txn_index_;
    }
    open->records.push_back(&rec);
    if (!rec.last_in_txn) continue;

    // Close the transaction: wire dependencies, then release the
    // scheduler's readiness hold.
    open->commit_ts = rec.commit_ts;
    AddWork(1);
    if (!unconstrained_) {
      std::unordered_set<TxnNode*> parents;
      for (const log::LogRecord* r : open->records) {
        LastWriter& last = last_writer_[RowName(r->table, r->row)];
        if (last.node != nullptr && last.node != open &&
            last.txn_index >= applied) {
          parents.insert(last.node);
        }
        last = LastWriter{open, open->txn_index};
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

void KuaFuReplica::WorkerLoop(int idx) {
  // Same sampling cadence as the C5 replicas, so fig6's apply_p50/p99
  // columns compare like for like. KuaFu never waits per record —
  // dependency edges gate the whole transaction — so this measures pure
  // install cost; the transaction-granularity stall shows up as
  // throughput, not here.
  ApplyTally tally(this, idx);
  while (auto node_opt = ready_.Pop()) {
    // One unit per transaction, never across the blocking Pop.
    const ApplyTally::Unit unit(tally);
    TxnNode* node = *node_opt;
    for (const log::LogRecord* rec : node->records) {
      // Same-row writers are serialized by the dependency edges, which is
      // the per-row ordering ApplyRecord's idempotence guard relies on.
      if (!unconstrained_) {
        ApplyRecord(*rec, tally);
        continue;
      }
      // The §7.3 diagnostic installs blindly and out of order by design.
      const std::int64_t t0 = tally.StartSample();
      EnsureRowBound(*rec);
      db_->table(rec->table).InstallCommitted(rec->row, rec->commit_ts,
                                              rec->value,
                                              rec->op == OpType::kDelete,
                                              /*allow_out_of_order=*/true);
      tally.CountApplied(*rec);
      tally.EndSample(t0);
    }
    ReleaseDependents(node);
    prefix_.Mark(node->txn_index, node->commit_ts);
    FinishWork(1);
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
