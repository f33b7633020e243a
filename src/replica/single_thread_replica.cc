#include "replica/single_thread_replica.h"

namespace c5::replica {

void SingleThreadReplica::SchedulerLoop(log::SegmentSource* source) {
  const auto guard = db_->epochs().Enter();
  ApplySampler sampler(this);
  while (log::LogSegment* seg = source->Next()) {
    for (const log::LogRecord& rec : seg->records()) {
      ApplyRecord(rec, sampler);
      if (rec.last_in_txn) {
        // Each transaction's writes become visible atomically, in commit
        // order: the visibility watermark moves only at txn boundaries.
        PublishVisible(rec.commit_ts);
        if (lag_ != nullptr) lag_->OnVisible(rec.commit_ts);
      }
    }
    AdvanceWatermark(*seg);
  }
}

}  // namespace c5::replica
