#include "workload/seeded_log.h"

#include <memory>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "log/log_collector.h"
#include "txn/mvtso_engine.h"
#include "workload/synthetic.h"

namespace c5::workload {

namespace {

// Mixed-operation transaction over a contended keyspace, the dst_harness
// shape: existence errors fall back to the complementary operation, deletes
// churn rows so the replayed state exercises tombstones.
Status MixedTxn(txn::Txn& txn, TableId table, Rng& rng,
                std::uint64_t keyspace) {
  const int ops = 1 + static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < ops; ++i) {
    const Key key = rng.Uniform(keyspace);
    const Value value = EncodeIntValue(rng.Next());
    switch (rng.Uniform(4)) {
      case 0: {
        Status s = txn.Insert(table, key, value);
        if (s.code() == StatusCode::kAlreadyExists) {
          s = txn.Update(table, key, value);
        }
        if (!s.ok()) return s;
        break;
      }
      case 1: {
        Status s = txn.Update(table, key, value);
        if (s.code() == StatusCode::kNotFound) {
          s = txn.Insert(table, key, value);
        }
        if (!s.ok()) return s;
        break;
      }
      case 2: {
        const Status s = txn.Delete(table, key);
        if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
        break;
      }
      default: {
        const Status s = txn.Put(table, key, value);
        if (!s.ok()) return s;
        break;
      }
    }
  }
  return Status::Ok();
}

}  // namespace

log::Log BuildSeededLog(const SeededLogSpec& spec) {
  storage::Database db;
  TxnClock clock;
  log::PerThreadLogCollector collector(spec.segment_capacity);
  txn::MvtsoEngine engine(&db, &collector, &clock);
  TableId table = 0;
  for (const std::string& name : SeededSchema()) table = db.CreateTable(name);

  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(spec.clients));
  for (int c = 0; c < spec.clients; ++c) {
    rngs.emplace_back(spec.seed ^ 0x5EEDED'1000ull ^
                      (static_cast<std::uint64_t>(c) * 0x9E3779B97F4A7C15ull));
  }
  for (std::uint64_t t = 0; t < spec.txns_per_client; ++t) {
    for (int c = 0; c < spec.clients; ++c) {
      (void)engine.ExecuteWithRetry([&](txn::Txn& txn) {
        return MixedTxn(txn, table, rngs[static_cast<std::size_t>(c)],
                        spec.keyspace);
      });
    }
  }
  return collector.Coalesce();
}

}  // namespace c5::workload
