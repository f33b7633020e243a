#include "replica/replica.h"

namespace c5::replica {

void ReplicaBase::Start(log::SegmentSource* source) {
  workers_running_.store(pipeline_.workers, std::memory_order_release);
  threads_.emplace_back([this, source] {
    SchedulerLoop(source);
    scheduler_done_.store(true, std::memory_order_release);
  });
  for (int i = 0; i < pipeline_.workers; ++i) {
    threads_.emplace_back([this, i] {
      WorkerLoop(i);
      workers_running_.fetch_sub(1, std::memory_order_acq_rel);
    });
  }
  if (pipeline_.workers > 0) {
    threads_.emplace_back([this] { VisibilityLoop(); });
  }
}

void ReplicaBase::VisibilityLoop() {
  int pass = 0;
  while (true) {
    // Read before the floor: a pass that began drained computes a floor
    // covering the whole log, so it is also the final advance.
    const bool drained = Drained();
    // §7.2: "periodically calculates a new n as the minimum across all c'
    // and then advances c to n".
    const Timestamp n = ApplyFloor();
    apply_floor_.store(n, std::memory_order_release);
    if (n > VisibleTimestamp()) PublishSnapshot(n);
    if (lag_ != nullptr) lag_->OnVisible(VisibleTimestamp());
    if (pipeline_.gc_every > 0 && ++pass % pipeline_.gc_every == 0) {
      db_->CollectGarbage(GcHorizon());
    }
    if (drained || shutdown_.load(std::memory_order_acquire)) break;
    std::this_thread::sleep_for(pipeline_.snapshot_interval);
  }
}

void ReplicaBase::WaitUntilCaughtUp() {
  // The contract (Replica) is that the VISIBLE snapshot covers the whole
  // log at return, not merely that every write was applied: the visibility
  // loop publishes asynchronously after the workers finish. (Found by the
  // DST harness under TSan timing.)
  while (!(Drained() && VisibleTimestamp() >= watermark())) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void ReplicaBase::Stop() {
  shutdown_.store(true, std::memory_order_release);
  CloseQueues();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

}  // namespace c5::replica
