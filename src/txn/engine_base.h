// The shared skeleton of the primary engines.
//
// MVTSO and 2PL differ only in their concurrency-control rule; everything
// else a primary does with a transaction lives here, once:
//  * The write set. WriteSet buffers a transaction's writes in a per-thread
//    scratch (ScratchLease) that keeps its capacity across transactions, so
//    the commit path allocates nothing in steady state.
//  * The existence rule and read-your-writes (BufferedTxn): the
//    transaction's own (coalesced) write to a key decides whether the key
//    exists; only a key the transaction has not written falls back to the
//    committed version the engine's read sees (a tombstone or no version:
//    the key does not exist, so Update and Delete return NotFound).
//  * Resolve-or-bind for writes that may create a key (Insert, Put).
//  * Per-row coalescing (WriteSet::Overwrite: the write set holds one write
//    per key) and log staging (WriteSet::LogCommit: the transaction's last
//    record flagged last_in_txn, handed to the collector in one call).
//  * Execute (EngineBase::Run): epoch guard, scratch, body, commit or
//    rollback, and the EngineStats outcome accounting.
//
// An engine supplies its transaction class, derived from BufferedTxn, with
// these non-virtual hooks:
//  * Claim(table, row): called before the first write to a row this
//    transaction did not just create (2PL: exclusive row lock; MVTSO:
//    nothing).
//  * ReadPoint(): the timestamp Insert's committed-existence check reads at.
//  * ReadVisible(table, row): the committed version (or nullptr) a read of a
//    row the transaction has not written sees, at ReadPoint(): Read,
//    ReadForUpdate (after Claim) and the existence check of Update and
//    Delete (after Claim). MVTSO records it in its read set.
//  * Commit() and Rollback(). Rollback runs after a failed body or a failed
//    commit; it must undo whatever the engine claimed or installed.

#ifndef C5_TXN_ENGINE_BASE_H_
#define C5_TXN_ENGINE_BASE_H_

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/types.h"
#include "log/log_collector.h"
#include "storage/database.h"
#include "storage/table.h"
#include "storage/version.h"
#include "txn/txn.h"

namespace c5::txn {

struct BufferedWrite {
  TableId table;
  RowId row;
  Key key;
  OpType op;
  Value value;
};

// A transaction's buffered writes: one per key (and so per row), in the
// order each key was first written. Slots keep their Value capacity across
// transactions (assign, never destroy).
class WriteSet {
 public:
  void Clear() {
    n_ = 0;
    records_.clear();
  }

  bool empty() const { return n_ == 0; }

  // This transaction's write to (table, key), or nullptr.
  BufferedWrite* Find(TableId table, Key key);

  // Buffers the first write to a key.
  void Add(TableId table, RowId row, Key key, OpType op, const Value& value);

  // Coalesces a later write into the key's buffered one: the last value
  // wins, and an insert stays an insert unless a delete follows, so the
  // backup knows the row is new.
  static void Overwrite(BufferedWrite& w, OpType op, const Value& value) {
    if (w.op != OpType::kInsert || op == OpType::kDelete) w.op = op;
    w.value.assign(value);  // reuses the slot's capacity
  }

  // The buffered writes; the caller may reorder them before LogCommit.
  std::span<BufferedWrite> writes() { return {writes_.data(), n_}; }

  // Logs the buffered writes, in their current order, as one transaction
  // committing at `commit_ts`. The records view this write set; sinks copy
  // what they keep (see log::RecordSpan). No-op without a collector or
  // without writes.
  void LogCommit(log::LogCollector* collector, Timestamp commit_ts);

 private:
  std::vector<BufferedWrite> writes_;
  std::size_t n_ = 0;
  std::vector<log::LogRecord> records_;
};

// Leases this thread's scratch of type S (cleared) for one transaction. A
// nested Execute on the same thread gets a stack-local S instead.
template <typename S>
class ScratchLease {
 public:
  ScratchLease() {
    Slot& slot = ThreadSlot();
    if (!slot.in_use) {
      slot.in_use = true;
      in_use_ = &slot.in_use;
      scratch_ = &slot.scratch;
    }
    scratch_->Clear();
  }
  ~ScratchLease() {
    if (in_use_ != nullptr) *in_use_ = false;
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  S& operator*() const { return *scratch_; }

 private:
  struct Slot {
    S scratch;
    bool in_use = false;
  };
  static Slot& ThreadSlot() {
    thread_local Slot slot;
    return slot;
  }

  S local_;
  S* scratch_ = &local_;
  bool* in_use_ = nullptr;
};

// The Txn operations both engines share, written once against the hooks of
// Derived (see the file comment). Hooks are called statically: a Txn
// operation costs one virtual call, as before.
template <typename Derived>
class BufferedTxn : public Txn {
 public:
  Status Read(TableId table, Key key, Value* out) final {
    return ReadKey(table, key, out, /*for_update=*/false);
  }

  Status ReadForUpdate(TableId table, Key key, Value* out) final {
    return ReadKey(table, key, out, /*for_update=*/true);
  }

  Status Insert(TableId table, Key key, Value value) final {
    const Target t = ResolveOrBind(table, key);
    if (t.own != nullptr) {
      if (t.own->op != OpType::kDelete) return Status::AlreadyExists();
      WriteSet::Overwrite(*t.own, OpType::kInsert, value);
      return Status::Ok();
    }
    if (!t.created) {
      const Status s = self().Claim(table, t.row);
      if (!s.ok()) return s;
      const storage::Version* v =
          db_.table(table).ReadAt(t.row, self().ReadPoint());
      if (v != nullptr && !v->deleted) return Status::AlreadyExists();
    }
    writes_.Add(table, t.row, key, OpType::kInsert, value);
    return Status::Ok();
  }

  Status Update(TableId table, Key key, Value value) final {
    return WriteExisting(table, key, OpType::kUpdate, value);
  }

  Status Delete(TableId table, Key key) final {
    return WriteExisting(table, key, OpType::kDelete, Value());
  }

  Status Put(TableId table, Key key, Value value) final {
    const Target t = ResolveOrBind(table, key);
    if (t.own != nullptr) {
      WriteSet::Overwrite(
          *t.own,
          t.own->op == OpType::kDelete ? OpType::kInsert : OpType::kUpdate,
          value);
      return Status::Ok();
    }
    if (!t.created) {
      const Status s = self().Claim(table, t.row);
      if (!s.ok()) return s;
    }
    writes_.Add(table, t.row, key,
                t.created ? OpType::kInsert : OpType::kUpdate, value);
    return Status::Ok();
  }

  bool has_writes() const final { return !writes_.empty(); }

 protected:
  BufferedTxn(storage::Database& db, WriteSet& writes)
      : db_(db), writes_(writes) {}

  storage::Database& db_;
  WriteSet& writes_;

 private:
  // Where a write to a key lands.
  struct Target {
    RowId row;
    // This transaction's own write to the key, if any. A key the index does
    // not bind has none: every write binds its key before buffering, and
    // the primary never unbinds a key.
    BufferedWrite* own;
    // This call bound the key to a fresh row slot, which no other
    // transaction can have claimed yet (2PL's new-row latch elision).
    bool created;
  };

  Derived& self() { return static_cast<Derived&>(*this); }

  Target ResolveOrBind(TableId table, Key key) {
    if (const auto row = db_.index(table).Lookup(key)) {
      return {*row, writes_.Find(table, key), false};
    }
    const RowId fresh = db_.table(table).AllocateRow();
    // Losing the race wastes the slot and reuses the winner's row.
    const RowId bound = db_.BindInsert(table, key, fresh);
    assert(bound != kInvalidRowId);
    return {bound, nullptr, bound == fresh};
  }

  Status ReadKey(TableId table, Key key, Value* out, bool for_update) {
    const auto row = db_.index(table).Lookup(key);
    if (!row.has_value()) return Status::NotFound();
    if (const BufferedWrite* w = writes_.Find(table, key)) {
      if (w->op == OpType::kDelete) return Status::NotFound();
      *out = w->value;
      return Status::Ok();
    }
    if (for_update) {
      const Status s = self().Claim(table, *row);
      if (!s.ok()) return s;
    }
    const storage::Version* v = self().ReadVisible(table, *row);
    if (v == nullptr || v->deleted) return Status::NotFound();
    out->assign(v->value());
    return Status::Ok();
  }

  // Update and Delete: the key must exist, in this transaction's own write
  // or, if it has none, as a live committed version at the read point.
  Status WriteExisting(TableId table, Key key, OpType op,
                       const Value& value) {
    const auto row = db_.index(table).Lookup(key);
    if (!row.has_value()) return Status::NotFound();
    if (BufferedWrite* w = writes_.Find(table, key)) {
      if (w->op == OpType::kDelete) return Status::NotFound();
      WriteSet::Overwrite(*w, op, value);
      return Status::Ok();
    }
    const Status s = self().Claim(table, *row);
    if (!s.ok()) return s;
    const storage::Version* v = self().ReadVisible(table, *row);
    if (v == nullptr || v->deleted) return Status::NotFound();
    writes_.Add(table, *row, key, op, value);
    return Status::Ok();
  }
};

// Engine state and Execute shared by both engines.
class EngineBase : public Engine {
 public:
  storage::Database& db() override { return *db_; }
  EngineStats& stats() override { return stats_; }

 protected:
  EngineBase(storage::Database* db, log::LogCollector* collector,
             TxnClock* clock)
      : db_(db), collector_(collector), clock_(clock) {}

  // One attempt of `fn` as a TxnT built from (scratch, engine): the body
  // runs under an epoch guard; OK commits, anything else (or a failed
  // commit) rolls back, and the outcome is counted in stats().
  template <typename TxnT, typename EngineT>
  Status Run(const TxnFn& fn, EngineT* engine) {
    const auto guard = db_->epochs().Enter();
    ScratchLease<typename TxnT::Scratch> scratch;
    TxnT txn(*scratch, engine);
    Status result = fn(txn);
    if (result.ok()) result = txn.Commit();
    if (!result.ok()) txn.Rollback();
    Account(result);
    return result;
  }

  storage::Database* db_;
  log::LogCollector* collector_;
  TxnClock* clock_;

 private:
  void Account(const Status& result);

  EngineStats stats_;
};

}  // namespace c5::txn

#endif  // C5_TXN_ENGINE_BASE_H_
