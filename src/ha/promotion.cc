#include "ha/promotion.h"

namespace c5::ha {

std::unique_ptr<PromotedPrimary> PromoteToPrimary(
    storage::Database* db, Timestamp applied_upto, EngineKind kind,
    std::size_t segment_capacity, log::LogCollector* extra_sink) {
  auto promoted = std::make_unique<PromotedPrimary>(segment_capacity);
  // Every new commit must extend the replicated history: start strictly
  // above everything the backup applied.
  promoted->clock.Reset(applied_upto + 1);
  log::LogCollector* sink = &promoted->collector;
  if (extra_sink != nullptr) {
    promoted->sink_tee = std::make_unique<log::TeeCollector>(
        std::vector<log::LogCollector*>{extra_sink, &promoted->collector});
    sink = promoted->sink_tee.get();
  }
  promoted->engine = txn::MakeEngine(kind, db, sink, &promoted->clock);
  return promoted;
}

}  // namespace c5::ha
