#include "replica/single_thread_replica.h"

namespace c5::replica {

void SingleThreadReplica::Schedule(log::LogSegment& seg) {
  // One epoch guard per segment, never across Next(): a guard held while
  // the source blocks would pin every version retired meanwhile.
  const auto guard = db_->epochs().Enter();
  for (const log::LogRecord& rec : seg.records()) {
    ApplyRecord(rec, sampler_);
    if (rec.last_in_txn) {
      // Each transaction's writes become visible atomically, in commit
      // order: the visibility watermark moves only at txn boundaries.
      PublishVisible(rec.commit_ts);
      if (lag_ != nullptr) lag_->OnVisible(rec.commit_ts);
    }
  }
}

}  // namespace c5::replica
