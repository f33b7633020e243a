#ifndef C5_STORAGE_DATABASE_H_
#define C5_STORAGE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/spin_lock.h"
#include "common/types.h"
#include "index/hash_index.h"
#include "index/ordered_index.h"
#include "storage/epoch.h"
#include "storage/table.h"

namespace c5::storage {

// A database: a set of multi-version tables, each paired with two key ->
// row-id secondary indexes — a hash index for point lookups and an ordered
// index for range scans / aggregation pushdown — plus the epoch manager that
// protects version reclamation.
//
// Two Database instances play the primary and backup in replication
// experiments. Table ids are assigned in creation order, so creating the
// same schema on both sides yields matching ids (the replication log
// addresses tables by id).
class Database {
 public:
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Creates a table (and its indexes); returns its id. Not thread-safe
  // against concurrent DDL (schema setup happens before execution starts).
  // Both indexes start empty and small and grow with the keys they bind
  // (HashIndex shards double from 8 slots; the OrderedIndex takes one arena
  // node per key), so a table costs memory in proportion to its contents.
  TableId CreateTable(std::string name);

  Table& table(TableId id) { return *tables_[id]; }
  const Table& table(TableId id) const { return *tables_[id]; }
  index::HashIndex& index(TableId id) { return *indexes_[id]; }
  const index::HashIndex& index(TableId id) const { return *indexes_[id]; }
  index::OrderedIndex& ordered_index(TableId id) {
    return *ordered_indexes_[id];
  }
  const index::OrderedIndex& ordered_index(TableId id) const {
    return *ordered_indexes_[id];
  }

  std::size_t NumTables() const { return tables_.size(); }

  // ---- Index binding seam ---------------------------------------------------
  // Every path that binds key -> row must keep the hash and ordered indexes
  // in step; these helpers are the only places that touch both, so a new
  // apply path cannot update one and forget the other.

  // Timestamp-aware bind used by every backup apply path (and checkpoint
  // load): installs key -> row in both indexes iff `ts` is at or above the
  // existing binding (HashIndex::UpsertIfNewer discipline). Returns whether
  // the hash binding was installed/refreshed.
  bool BindIfNewer(TableId tid, Key key, RowId row, Timestamp ts) {
    const bool bound = indexes_[tid]->UpsertIfNewer(key, row, ts);
    ordered_indexes_[tid]->UpsertIfNewer(key, row, ts);
    return bound;
  }

  // Primary-engine insert bind: claims key -> fresh if the key is unbound.
  // The hash index arbitrates racing inserts; only the winner propagates to
  // the ordered index (the loser returns the winner's row, so both indexes
  // always agree on the binding). Returns the bound row for `key`.
  RowId BindInsert(TableId tid, Key key, RowId fresh) {
    if (indexes_[tid]->Insert(key, fresh)) {
      ordered_indexes_[tid]->Upsert(key, fresh);
      return fresh;
    }
    const auto existing = indexes_[tid]->Lookup(key);
    return existing.has_value() ? *existing : kInvalidRowId;
  }

  EpochManager& epochs() { return epochs_; }

  // Truncates all version chains below `horizon` across all tables and
  // reclaims eligible garbage. Callers guarantee no reader is at or below
  // horizon (e.g., horizon = snapshotter's current snapshot minus active
  // reader margin). Returns the number of rows whose chains were truncated
  // (exact freed-version counts come from the epoch manager's reclaim).
  // Passes are serialized: the walk holds no epoch guard, so a concurrent
  // pass with a lower horizon could otherwise walk into a tail this pass
  // retired and reclaimed.
  std::size_t CollectGarbage(Timestamp horizon);

  // Convenience read: resolve key through the index, then read at ts.
  // Returns nullptr for absent keys, tombstoned rows included (caller checks
  // deleted flag via the returned version).
  const Version* ReadKeyAt(TableId tid, Key key, Timestamp ts) const;

  // Largest committed write timestamp anywhere in the database
  // (O(rows); takes an epoch guard internally). After a crash this is the
  // dead incarnation's run-ahead high-water mark — the upper bound of the
  // recovery visibility window a restarted replica must close before
  // publishing snapshots (replica::ReplicaBase::SetRecoveryWindow).
  Timestamp MaxCommittedTimestamp();

 private:
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<std::unique_ptr<index::HashIndex>> indexes_;
  std::vector<std::unique_ptr<index::OrderedIndex>> ordered_indexes_;
  EpochManager epochs_;
  Mutex gc_mu_{LockRank::kGc};
};

}  // namespace c5::storage

#endif  // C5_STORAGE_DATABASE_H_
