#ifndef C5_HA_PROMOTION_H_
#define C5_HA_PROMOTION_H_

#include <cstddef>
#include <memory>

#include "common/clock.h"
#include "common/status.h"
#include "log/log_collector.h"
#include "storage/database.h"
#include "txn/txn.h"

namespace c5::ha {

// Which primary concurrency control protocol the promoted node runs.
using txn::EngineKind;

// A backup promoted to primary: a fresh concurrency-control engine over the
// backup's database, a timestamp source seeded above every replicated
// commit, and a log collector whose output extends the old primary's log
// (so surviving backups can be re-pointed at the promoted node with
// ChainedSegmentSource and stay prefix-consistent).
struct PromotedPrimary {
  explicit PromotedPrimary(std::size_t segment_capacity)
      : collector(segment_capacity) {}

  PromotedPrimary(const PromotedPrimary&) = delete;
  PromotedPrimary& operator=(const PromotedPrimary&) = delete;

  TxnClock clock;
  log::PerThreadLogCollector collector;
  // When the promotion carried an extra sink (a migration tap that must keep
  // seeing the shard's commit stream across failover), the engine logs into
  // this tee over {extra_sink, &collector} instead of `collector` directly.
  std::unique_ptr<log::LogCollector> sink_tee;
  std::unique_ptr<txn::Engine> engine;
};

// Promotes a caught-up backup database to primary (§9: "if the primary
// fails, the backup executes a synchronization protocol to bring it into a
// consistent state before processing new transactions"; in this library the
// synchronization is the replica's WaitUntilCaughtUp on its delivered log).
//
// Preconditions the caller establishes before calling:
//  * the replica consuming `db` was caught up to its delivered log
//    (Replica::WaitUntilCaughtUp) and Stopped — `applied_upto` is its final
//    VisibleTimestamp(), covering every applied transaction;
//  * no other thread touches `db` during promotion.
//
// The returned primary's clock starts at applied_upto + 1, so every new
// commit extends the replicated history: the promoted node's log records
// carry strictly larger timestamps than anything in the old primary's log,
// which is exactly the invariant downstream cloned concurrency control
// protocols need.
//
// `extra_sink`, when non-null, also receives every commit the promoted
// engine logs (tee'd ahead of the internal collector). A live migration's
// catch-up tap passes itself here so a mid-migration failover cannot open a
// gap in the moving partitions' record stream (docs/API.md "Resharding").
std::unique_ptr<PromotedPrimary> PromoteToPrimary(
    storage::Database* db, Timestamp applied_upto, EngineKind kind,
    std::size_t segment_capacity = 256,
    log::LogCollector* extra_sink = nullptr);

}  // namespace c5::ha

#endif  // C5_HA_PROMOTION_H_
