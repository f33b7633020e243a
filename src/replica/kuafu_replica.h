#ifndef C5_REPLICA_KUAFU_REPLICA_H_
#define C5_REPLICA_KUAFU_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mpmc_queue.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "replica/replica.h"

namespace c5::replica {

// Reimplementation of KuaFu [Hong et al., ICDE'13], the state-of-the-art
// transaction-granularity cloned concurrency control protocol the paper uses
// as its baseline (§6): "writes conflict if they modify the same row, and the
// protocol serializes transactions with conflicting writes" (§3).
//
// Scheduler: builds the write-set dependency graph. Each transaction depends
// on the most recent earlier transaction that wrote each of its rows
// (last-writer edges form a total per-row order, which is all
// transaction-granularity execution needs). Zero-in-degree transactions
// enter the ready queue; workers apply a transaction's writes atomically and
// release its dependents.
//
// Visibility: transactions complete out of commit order; each worker marks
// its transaction's index in the shared prefix tracker, and the snapshot is
// the last transaction of the applied prefix (ReplicaBase::ApplyFloor).
//
// Unconstrained mode reproduces the paper's diagnostic (§7.3): the
// scheduler skips dependency calculation entirely and every transaction is
// immediately ready. This intentionally breaks correctness (writes race) and
// exists only to measure the scheduler/worker ceiling, exactly as the paper
// did ("we re-ran the experiment above but disabled its scheduler's
// calculation of transaction-granularity constraints").
class KuaFuReplica : public ReplicaBase {
 public:
  // `unconstrained` selects the diagnostic mode; it breaks correctness.
  KuaFuReplica(storage::Database* db, bool unconstrained,
               const ProtocolOptions& options);
  ~KuaFuReplica() override { Stop(); }

  std::string name() const override {
    return unconstrained_ ? "kuafu-unconstrained" : "kuafu";
  }

 private:
  struct TxnNode {
    // Records of this transaction: pointers into log segments, which the
    // segment loop may release once prefix_ covers the transaction.
    std::vector<const log::LogRecord*> records;
    std::uint64_t txn_index = 0;
    Timestamp commit_ts = kInvalidTimestamp;

    // Dependency bookkeeping. deps starts at (#parents + 1); the extra count
    // is removed by the scheduler after all edges are wired, preventing
    // premature readiness.
    std::atomic<std::uint64_t> deps{1};
    SpinLock children_mu{LockRank::kReplicaState};
    bool completed C5_GUARDED_BY(children_mu) = false;
    std::vector<TxnNode*> children C5_GUARDED_BY(children_mu);

    // Returns true if the edge was added; false if this parent already
    // completed (the child need not wait).
    bool TryAddChild(TxnNode* child) {
      SpinLockGuard lock(children_mu);
      if (completed) return false;
      children.push_back(child);
      return true;
    }
  };

  // Builds the segment's transactions and their dependency edges; each one
  // is outstanding work (ReplicaBase::AddWork) until a worker applies it.
  void Schedule(log::LogSegment& seg) override;
  void WorkerLoop(int idx) override;
  void CloseQueues() override { ready_.Close(); }

  void ReleaseDependents(TxnNode* node);
  void MaybeReady(TxnNode* node) {
    if (node->deps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ready_.Push(node);
    }
  }

  const bool unconstrained_;

  MpmcQueue<TxnNode*> ready_;

  // The nodes of transactions not yet in the applied prefix, in log order;
  // owned by the scheduler, which frees each one once prefix_ covers it (a
  // worker touches its node only before prefix_.Mark).
  std::deque<std::unique_ptr<TxnNode>> nodes_;

  // Scheduler-thread state. Per-row last-writer map. Transaction-granularity
  // dependency rule (§3.1): "if W(T1) ∩ W(T2) != ∅ and T1 ≺ T2, then all of
  // T1's writes execute before any of T2's." Last-writer edges enforce
  // exactly this: per-row edges chain all writers of the row in log order.
  // A writer below the applied prefix needs no edge, and its node may be
  // freed, so the index is checked before the node is touched.
  struct LastWriter {
    TxnNode* node;
    std::uint64_t txn_index;
  };
  std::unordered_map<std::uint64_t, LastWriter> last_writer_;
  std::uint64_t txn_index_ = 0;  // next transaction's index in log order
};

}  // namespace c5::replica

#endif  // C5_REPLICA_KUAFU_REPLICA_H_
