#include "sim/dst_oracle.h"

#include <map>
#include <optional>
#include <utility>

#include "storage/logical_snapshot.h"
#include "storage/table.h"

namespace c5::sim {

namespace {

void MixInto(std::uint64_t* h, std::uint64_t v) {
  *h ^= v;
  *h *= 0x100000001b3ull;
  *h ^= *h >> 29;
}

}  // namespace

std::uint64_t StateDigest(storage::Database& db, Timestamp ts) {
  const auto guard = db.epochs().Enter();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (TableId t = 0; t < db.NumTables(); ++t) {
    const storage::Table& table = db.table(t);
    const RowId n = table.NumRows();
    for (RowId r = 0; r < n; ++r) {
      const storage::Version* v = table.ReadAt(r, ts);
      if (v == nullptr) continue;
      MixInto(&h, t);
      MixInto(&h, r);
      MixInto(&h, v->deleted ? 1 : 0);
      std::uint64_t dh = 1469598103934665603ull;
      for (const char c : v->value()) {
        dh = (dh ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
      }
      MixInto(&h, dh);
    }
  }
  return h;
}

namespace {

std::string DescribeVersion(const storage::Version* v) {
  if (v == nullptr) return "absent";
  if (v->deleted) return "tombstone@" + std::to_string(v->write_ts);
  std::string s = "ts " + std::to_string(v->write_ts) + " [";
  for (const char c : v->value()) {
    char buf[4];
    std::snprintf(buf, sizeof(buf), "%02x",
                  static_cast<unsigned char>(c));
    s += buf;
    if (s.size() > 24) {
      s += "..";
      break;
    }
  }
  return s + "]";
}

// What an index read at `ts` must observe for every key the log mentions,
// under the timestamp-aware single-valued index semantics:
//  * bound_row — the row of the key's newest record over the WHOLE log
//    (HashIndex::UpsertIfNewer converges there whatever order parallel
//    workers apply the records in);
//  * value — last-writer-wins over the prefix commit_ts <= ts RESTRICTED to
//    bound_row (older row incarnations are unreachable through the present
//    index); nullopt when absent or deleted there.
struct KeyExpect {
  RowId bound_row = kInvalidRowId;
  Timestamp bound_ts = 0;
  std::optional<Value> value;
};

std::map<std::pair<TableId, Key>, KeyExpect> MaterializeByBoundRow(
    const log::Log& log, Timestamp ts) {
  std::map<std::pair<TableId, Key>, KeyExpect> out;
  // Pass 1: bound rows. Iterating in log order with >= makes the latest
  // record win (commit timestamps are non-decreasing in log order).
  for (std::size_t s = 0; s < log.NumSegments(); ++s) {
    for (const log::LogRecord& rec : log.segment(s)->records()) {
      KeyExpect& e = out[{rec.table, rec.key}];
      if (rec.commit_ts >= e.bound_ts) {
        e.bound_ts = rec.commit_ts;
        e.bound_row = rec.row;
      }
    }
  }
  // Pass 2: materialize the visible prefix of each bound row.
  for (std::size_t s = 0; s < log.NumSegments(); ++s) {
    for (const log::LogRecord& rec : log.segment(s)->records()) {
      if (rec.commit_ts > ts) continue;
      KeyExpect& e = out[{rec.table, rec.key}];
      if (rec.row != e.bound_row) continue;
      if (rec.op == OpType::kDelete) {
        e.value.reset();
      } else {
        e.value = rec.value;
      }
    }
  }
  return out;
}

}  // namespace

std::string DiffStates(storage::Database& got, storage::Database& want,
                       Timestamp ts, std::size_t max_rows) {
  const auto guard_a = got.epochs().Enter();
  const auto guard_b = want.epochs().Enter();
  std::string out;
  std::size_t shown = 0;
  const TableId tables =
      static_cast<TableId>(std::min(got.NumTables(), want.NumTables()));
  for (TableId t = 0; t < tables && shown < max_rows; ++t) {
    const storage::Table& ta = got.table(t);
    const storage::Table& tb = want.table(t);
    const RowId n = std::max(ta.NumRows(), tb.NumRows());
    for (RowId r = 0; r < n && shown < max_rows; ++r) {
      const storage::Version* va = r < ta.NumRows() ? ta.ReadAt(r, ts) : nullptr;
      const storage::Version* vb = r < tb.NumRows() ? tb.ReadAt(r, ts) : nullptr;
      // Mirror StateDigest's sensitivity exactly: presence, the deleted
      // flag, and the value all count (a tombstone differs from an absent
      // row — e.g. a dropped coalesced insert+delete).
      if ((va == nullptr) == (vb == nullptr) &&
          (va == nullptr ||
           (va->deleted == vb->deleted && va->value() == vb->value()))) {
        continue;
      }
      out += " {t" + std::to_string(t) + " r" + std::to_string(r) +
             ": got " + DescribeVersion(va) + ", want " +
             DescribeVersion(vb) + "}";
      ++shown;
    }
  }
  return out;
}

bool ChainsStrictlyOrdered(storage::Database& db, std::string* detail) {
  const auto guard = db.epochs().Enter();
  for (TableId t = 0; t < db.NumTables(); ++t) {
    const storage::Table& table = db.table(t);
    const RowId n = table.NumRows();
    for (RowId r = 0; r < n; ++r) {
      Timestamp prev = kMaxTimestamp;
      for (const storage::Version* v = table.ReadLatestCommitted(r);
           v != nullptr; v = v->Next()) {
        if (v->write_ts >= prev) {
          if (detail != nullptr) {
            *detail = "duplicate or out-of-order version on table " +
                      std::to_string(t) + " row " + std::to_string(r) +
                      " ts " + std::to_string(v->write_ts);
          }
          return false;
        }
        prev = v->write_ts;
      }
    }
  }
  return true;
}

std::vector<Timestamp> TxnBoundaries(const log::Log& log) {
  std::vector<Timestamp> out;
  out.reserve(log.CountTransactions());
  for (std::size_t s = 0; s < log.NumSegments(); ++s) {
    for (const log::LogRecord& rec : log.segment(s)->records()) {
      if (rec.last_in_txn) out.push_back(rec.commit_ts);
    }
  }
  return out;
}

bool LogWellFormed(const log::Log& log, std::string* detail) {
  const auto fail = [detail](std::string why) {
    if (detail != nullptr) *detail = std::move(why);
    return false;
  };
  Timestamp prev_ts = 0;
  std::uint64_t expect_base = log.NumSegments() > 0
                                  ? log.segment(0)->base_seq()
                                  : 0;
  for (std::size_t s = 0; s < log.NumSegments(); ++s) {
    const log::LogSegment* seg = log.segment(s);
    if (seg->empty()) return fail("empty segment " + std::to_string(s));
    if (seg->base_seq() != expect_base) {
      return fail("base_seq gap at segment " + std::to_string(s));
    }
    expect_base += seg->size();
    if (!seg->records().back().last_in_txn) {
      return fail("transaction spans segment " + std::to_string(s));
    }
    Timestamp open_txn = kInvalidTimestamp;
    for (const log::LogRecord& rec : seg->records()) {
      if (rec.commit_ts < prev_ts) {
        return fail("timestamps regress in segment " + std::to_string(s));
      }
      prev_ts = rec.commit_ts;
      if (open_txn != kInvalidTimestamp && rec.commit_ts != open_txn) {
        return fail("interleaved transactions in segment " +
                    std::to_string(s));
      }
      open_txn = rec.last_in_txn ? kInvalidTimestamp : rec.commit_ts;
    }
  }
  return true;
}

bool CheckLogicalSnapshotOracle(storage::Database& db, const log::Log& log,
                                Timestamp ts, std::string* detail) {
  const auto expectations = MaterializeByBoundRow(log, ts);

  const auto guard = db.epochs().Enter();
  for (const auto& [tk, expect] : expectations) {
    const auto& [table, key] = tk;
    // The index must have converged to the newest row for the key — the
    // timestamp-aware binding invariant (the database is caught up to the
    // whole log when the oracle runs, so the binding is final).
    const auto bound = db.index(table).Lookup(key);
    if (!bound.has_value() || *bound != expect.bound_row) {
      if (detail != nullptr) {
        *detail = "index binding mismatch at table " + std::to_string(table) +
                  " key " + std::to_string(key) + ": bound to " +
                  (bound.has_value() ? "row " + std::to_string(*bound)
                                     : std::string("nothing")) +
                  ", newest record is on row " +
                  std::to_string(expect.bound_row) + " (ts " +
                  std::to_string(expect.bound_ts) + ")";
      }
      return false;
    }
    const storage::Version* v = db.ReadKeyAt(table, key, ts);
    const bool db_live = v != nullptr && !v->deleted;
    if (expect.value.has_value() != db_live ||
        (db_live && *expect.value != v->value())) {
      if (detail != nullptr) {
        *detail = "logical snapshot mismatch at ts " + std::to_string(ts) +
                  " table " + std::to_string(table) + " key " +
                  std::to_string(key) + ": log prefix says " +
                  (expect.value.has_value() ? "live" : "absent") +
                  ", database says " + (db_live ? "live" : "absent") +
                  "; log history:";
        for (std::size_t s = 0; s < log.NumSegments(); ++s) {
          for (const log::LogRecord& rec : log.segment(s)->records()) {
            if (rec.table != table || rec.key != key) continue;
            *detail += ' ';
            *detail += std::to_string(rec.commit_ts);
            *detail += rec.op == OpType::kDelete   ? 'D'
                       : rec.op == OpType::kInsert ? 'I'
                                                   : 'U';
            *detail += 'r';
            *detail += std::to_string(rec.row);
          }
        }
        *detail += "; db chain:";
        for (const storage::Version* c =
                 db.table(table).ReadLatestCommitted(expect.bound_row);
             c != nullptr; c = c->Next()) {
          *detail += ' ';
          *detail += std::to_string(c->write_ts);
          if (c->deleted) *detail += 'D';
        }
      }
      return false;
    }
  }
  return true;
}

bool CheckScanOracle(const Snapshot& snap, TableId table, const log::Log& log,
                     std::uint64_t keyspace, std::string* detail) {
  const Timestamp ts = snap.timestamp();
  const auto expectations = MaterializeByBoundRow(log, ts);

  const auto fail = [&](Key lo, Key hi, std::string why) {
    if (detail != nullptr) {
      *detail = "scan oracle [" + std::to_string(lo) + ", " +
                std::to_string(hi) + ") at ts " + std::to_string(ts) + ": " +
                std::move(why);
    }
    return false;
  };

  // Three deterministic sub-ranges: whole space, a middle band, a narrow
  // band (exercises empty-result and boundary-straddling scans too).
  const std::pair<Key, Key> ranges[] = {
      {0, keyspace},
      {keyspace / 4, (3 * keyspace) / 4},
      {keyspace / 2, keyspace / 2 + std::max<std::uint64_t>(1, keyspace / 8)},
  };
  for (const auto& [lo, hi] : ranges) {
    // Expected: the live keys in [lo, hi), ascending (the map is ordered).
    std::vector<std::pair<Key, Value>> want;
    for (const auto& [tk, expect] : expectations) {
      if (tk.first != table) continue;
      if (tk.second < lo || tk.second >= hi) continue;
      if (expect.value.has_value()) want.emplace_back(tk.second, *expect.value);
    }
    auto it = snap.Scan(table, lo, hi);
    std::size_t i = 0;
    for (; it.Valid(); it.Next(), ++i) {
      if (i >= want.size()) {
        return fail(lo, hi,
                    "extra key " + std::to_string(it.key()) +
                        " beyond the " + std::to_string(want.size()) +
                        " expected");
      }
      if (it.key() != want[i].first) {
        return fail(lo, hi,
                    "position " + std::to_string(i) + " returned key " +
                        std::to_string(it.key()) + ", want " +
                        std::to_string(want[i].first));
      }
      if (it.value() != want[i].second) {
        return fail(lo, hi,
                    "key " + std::to_string(it.key()) + " value mismatch");
      }
    }
    if (i != want.size()) {
      return fail(lo, hi,
                  "scan ended after " + std::to_string(i) + " keys, want " +
                      std::to_string(want.size()));
    }
  }
  return true;
}

bool CheckOrderedIndexOracle(storage::Database& db, const log::Log& log,
                             std::string* detail,
                             std::uint64_t* keys_checked) {
  const auto guard = db.epochs().Enter();
  std::uint64_t checked = 0;
  const auto fail = [detail](std::string why) {
    if (detail != nullptr) *detail = "ordered index oracle: " + std::move(why);
    return false;
  };

  for (TableId t = 0; t < db.NumTables(); ++t) {
    // (1) One ordered sweep: strictly ascending keys, every binding agreed
    // by the hash index.
    bool bad = false;
    std::string why;
    bool first = true;
    Key prev = 0;
    db.ordered_index(t).ForEach([&](Key key, RowId row, Timestamp) {
      if (bad) return;
      if (!first && key <= prev) {
        bad = true;
        why = "iteration not strictly ascending at table " +
              std::to_string(t) + " key " + std::to_string(key);
        return;
      }
      first = false;
      prev = key;
      const auto hash_row = db.index(t).Lookup(key);
      if (!hash_row.has_value() || *hash_row != row) {
        bad = true;
        why = "phantom binding at table " + std::to_string(t) + " key " +
              std::to_string(key) + ": ordered row " + std::to_string(row) +
              ", hash " +
              (hash_row.has_value() ? "row " + std::to_string(*hash_row)
                                    : std::string("nothing"));
      }
    });
    if (bad) return fail(std::move(why));

    // (2) Reverse containment: every hash binding reachable when iterating.
    db.index(t).ForEach([&](Key key, RowId row, Timestamp) {
      if (bad) return;
      ++checked;
      const auto ordered_row = db.ordered_index(t).Lookup(key);
      if (!ordered_row.has_value() || *ordered_row != row) {
        bad = true;
        why = "missing binding at table " + std::to_string(t) + " key " +
              std::to_string(key) + ": hash row " + std::to_string(row) +
              ", ordered " +
              (ordered_row.has_value()
                   ? "row " + std::to_string(*ordered_row)
                   : std::string("nothing"));
      }
    });
    if (bad) return fail(std::move(why));
  }

  // (3) Newest-record convergence, against the log itself (kMaxTimestamp:
  // bindings are final once the replica is caught up).
  const auto expectations = MaterializeByBoundRow(log, kMaxTimestamp);
  for (const auto& [tk, expect] : expectations) {
    const auto& [table, key] = tk;
    const auto bound = db.ordered_index(table).LookupWithTs(key);
    if (!bound.has_value() || bound->first != expect.bound_row) {
      return fail("binding at table " + std::to_string(table) + " key " +
                  std::to_string(key) + " is " +
                  (bound.has_value() ? "row " + std::to_string(bound->first)
                                     : std::string("nothing")) +
                  ", newest record is on row " +
                  std::to_string(expect.bound_row) + " (ts " +
                  std::to_string(expect.bound_ts) + ")");
    }
    ++checked;
  }
  if (keys_checked != nullptr) *keys_checked += checked;
  return true;
}

}  // namespace c5::sim
