#include "txn/engine_base.h"

#include "txn/mvtso_engine.h"
#include "txn/two_phase_locking_engine.h"

namespace c5::txn {

BufferedWrite* WriteSet::Find(TableId table, Key key) {
  for (std::size_t i = 0; i < n_; ++i) {
    BufferedWrite& w = writes_[i];
    if (w.table == table && w.key == key) return &w;
  }
  return nullptr;
}

void WriteSet::Add(TableId table, RowId row, Key key, OpType op,
                   const Value& value) {
  if (n_ == writes_.size()) writes_.emplace_back();
  BufferedWrite& w = writes_[n_++];
  w.table = table;
  w.row = row;
  w.key = key;
  w.op = op;
  w.value.assign(value);  // reuses the slot's capacity
}

void WriteSet::LogCommit(log::LogCollector* collector, Timestamp commit_ts) {
  if (collector == nullptr || n_ == 0) return;
  for (const BufferedWrite& w : writes()) {
    records_.push_back(log::LogRecord{.table = w.table,
                                      .op = w.op,
                                      .row = w.row,
                                      .key = w.key,
                                      .commit_ts = commit_ts,
                                      .value = w.value});
  }
  records_.back().last_in_txn = true;
  collector->LogCommit(records_);
}

void EngineBase::Account(const Status& result) {
  std::atomic<std::uint64_t>& counter =
      result.ok() ? stats_.commits
      : result.code() == StatusCode::kCancelled ? stats_.user_aborts
                                                 : stats_.aborts;
  counter.fetch_add(1, std::memory_order_relaxed);
}

std::unique_ptr<Engine> MakeEngine(EngineKind kind, storage::Database* db,
                                   log::LogCollector* sink, TxnClock* clock) {
  switch (kind) {
    case EngineKind::kMvtso:
      return std::make_unique<MvtsoEngine>(db, sink, clock);
    case EngineKind::kTwoPhaseLocking:
      return std::make_unique<TwoPhaseLockingEngine>(db, sink, clock);
  }
  return nullptr;
}

}  // namespace c5::txn
