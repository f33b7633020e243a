#include "storage/database.h"

#include <algorithm>

#include "common/clock.h"

namespace c5::storage {

TableId Database::CreateTable(std::string name) {
  tables_.push_back(std::make_unique<Table>(std::move(name)));
  indexes_.push_back(std::make_unique<index::HashIndex>());
  ordered_indexes_.push_back(std::make_unique<index::OrderedIndex>());
  return static_cast<TableId>(tables_.size() - 1);
}

std::size_t Database::CollectGarbage(Timestamp horizon) {
  MutexLock lock(gc_mu_);
  std::size_t total = 0;
  for (auto& t : tables_) total += t->CollectGarbage(horizon, epochs_);
  epochs_.ReclaimSome();
  return total;
}

void Database::MaintenanceLoop(int every, std::chrono::microseconds tick,
                               const std::function<Timestamp()>& horizon,
                               const std::function<bool()>& done,
                               const std::function<bool()>& stop,
                               GcStats* stats) {
  // A pass that truncates nothing (a preload's walk, or an unmoved horizon:
  // an idle side, a long reader's pin) doubles the gap to the next one, up
  // to 64x: an idle loop then makes about five passes a second at the
  // defaults, and a horizon that starts moving again waits at most that
  // long (204.8 ms) for its first walk.
  constexpr int kMaxBackoff = 64;
  Timestamp last_horizon = kMaxTimestamp;  // no horizon function returns it
  int backoff = 1;
  while (true) {
    maintenance_.ParkUntil([&] { return stop() || done(); },
                           EventCount::Clock::now() + every * backoff * tick);
    if (stop()) return;
    const bool last = done();
    const std::int64_t t0 = MonotonicNowNanos();
    const Timestamp h = horizon();
    std::size_t truncated = 0;
    if (h != last_horizon) {
      truncated = CollectGarbage(h);
      last_horizon = h;
    } else {
      // Every write still to land is above the previous horizon, so an
      // unmoved horizon has nothing new to truncate; reclaim only.
      epochs_.ReclaimSome();
    }
    backoff = truncated > 0 ? 1 : std::min(2 * backoff, kMaxBackoff);
    const auto ns = static_cast<std::uint64_t>(MonotonicNowNanos() - t0);
    stats->gc_passes.fetch_add(1, std::memory_order_relaxed);
    stats->gc_ns_total.fetch_add(ns, std::memory_order_relaxed);
    if (ns > stats->gc_ns_max.load(std::memory_order_relaxed)) {
      stats->gc_ns_max.store(ns, std::memory_order_relaxed);
    }
    if (last) return;
  }
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
