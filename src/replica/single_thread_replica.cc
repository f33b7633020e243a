#include "replica/single_thread_replica.h"

namespace c5::replica {

void SingleThreadReplica::Schedule(log::LogSegment& seg) {
  // One unit per segment, never across Next(): a guard held while the
  // source blocks would pin every version retired meanwhile.
  const ApplyTally::Unit unit(scheduler_tally());
  for (const log::LogRecord& rec : seg.records()) {
    ApplyRecord(rec, scheduler_tally());
    if (rec.last_in_txn) {
      // Each transaction's writes become visible atomically, in commit
      // order: the visibility watermark moves only at txn boundaries.
      PublishVisible(rec.commit_ts);
      if (tracker_ != nullptr) tracker_->OnVisible(rec.commit_ts);
    }
  }
}

}  // namespace c5::replica
