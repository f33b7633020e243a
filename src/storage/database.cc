#include "storage/database.h"

namespace c5::storage {

TableId Database::CreateTable(std::string name, std::size_t expected_keys) {
  tables_.push_back(std::make_unique<Table>(std::move(name)));
  indexes_.push_back(std::make_unique<index::HashIndex>());
  ordered_indexes_.push_back(std::make_unique<index::OrderedIndex>());
  if (expected_keys > 0) {
    indexes_.back()->Reserve(expected_keys);
    ordered_indexes_.back()->Reserve(expected_keys);
  }
  return static_cast<TableId>(tables_.size() - 1);
}

std::size_t Database::CollectGarbage(Timestamp horizon) {
  MutexLock lock(gc_mu_);
  std::size_t total = 0;
  for (auto& t : tables_) total += t->CollectGarbage(horizon, epochs_);
  epochs_.ReclaimSome();
  return total;
}

const Version* Database::ReadKeyAt(TableId tid, Key key, Timestamp ts) const {
  const auto row = indexes_[tid]->Lookup(key);
  if (!row.has_value()) return nullptr;
  return tables_[tid]->ReadAt(*row, ts);
}

Timestamp Database::MaxCommittedTimestamp() {
  const auto guard = epochs_.Enter();
  Timestamp max_ts = 0;
  for (auto& t : tables_) {
    const RowId n = t->NumRows();
    for (RowId r = 0; r < n; ++r) {
      const Version* v = t->ReadLatestCommitted(r);
      if (v != nullptr && v->write_ts > max_ts) max_ts = v->write_ts;
    }
  }
  return max_ts;
}

}  // namespace c5::storage
