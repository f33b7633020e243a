#include "replica/replica.h"

#include <algorithm>

namespace c5::replica {

void ReplicaBase::Start(log::SegmentSource* source) {
  workers_running_.store(options_.num_workers, std::memory_order_release);
  threads_.emplace_back([this, source] {
    SegmentLoop(source);
    scheduler_done_.store(true, std::memory_order_release);
    WakeAll();
  });
  for (int i = 0; i < options_.num_workers; ++i) {
    threads_.emplace_back([this, i] {
      WorkerLoop(i);
      if (workers_running_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        WakeAll();
      }
    });
  }
  if (options_.num_workers > 0) {
    threads_.emplace_back([this] {
      VisibilityLoop();
      visibility_done_.store(true, std::memory_order_release);
      db_->WakeMaintenance();
    });
    if (options_.gc_every > 0) {
      threads_.emplace_back([this] {
        db_->MaintenanceLoop(
            options_.gc_every, options_.snapshot_interval,
            [this] { return GcHorizon(); },
            [this] {
              return visibility_done_.load(std::memory_order_acquire);
            },
            [this] { return stopping(); }, &stats_);
      });
    }
  }
}

void ReplicaBase::SegmentLoop(log::SegmentSource* source) {
  while (log::LogSegment* seg = NextSegment(source)) {
    if (stopping()) continue;
    scheduling_.store(true, std::memory_order_release);
    Schedule(*seg);
    // A Schedule cut short at Stop() does not advance the watermark.
    if (stopping()) continue;
    AdvanceWatermark(*seg);
    scheduling_.store(false, std::memory_order_release);
    // Without workers the segment is applied (or indexed) by now and no
    // visibility loop runs, so the floor is published here.
    if (options_.num_workers == 0) {
      apply_floor_.store(ApplyFloor(), std::memory_order_release);
    }
  }
  FinishWork(1);  // the scheduler's hold
  scheduler_tally_.MergeSamples();
}

void ReplicaBase::AdvanceWatermark(const log::LogSegment& seg) {
  if (!seg.empty() &&
      seg.MaxTimestamp() > watermark_.load(std::memory_order_relaxed)) {
    watermark_.store(seg.MaxTimestamp(), std::memory_order_release);
  }
}

log::LogSegment* ReplicaBase::NextSegment(log::SegmentSource* source) {
  if (!in_use_.empty()) {
    const Timestamp floor = apply_floor_.load(std::memory_order_acquire);
    std::uint64_t end = 0;
    std::uint64_t released = 0;
    while (!in_use_.empty() && in_use_.front().key <= floor) {
      end = std::max(end, in_use_.front().end_seq);
      in_use_.pop_front();
      ++released;
    }
    if (released > 0) {
      // A segment still in use keeps its records below end_seq pinned.
      if (!in_use_.empty()) end = std::min(end, in_use_.front().base_seq);
      if (end > released_end_) {
        source->Release(end);
        released_end_ = end;
      }
      stats_.released_segments.fetch_add(released, std::memory_order_relaxed);
    }
  }
  log::LogSegment* seg = source->Next();
  if (seg != nullptr && !seg->empty()) {
    last_key_ = std::max(seg->MaxTimestamp(), last_key_ + 1);
    in_use_.push_back(
        InUse{seg->base_seq(), seg->base_seq() + seg->size(), last_key_});
  }
  return seg;
}

void ReplicaBase::ApplyTally::Flush(std::int64_t cpu_ns) {
  ReplicaStats& stats = replica_->stats_;
  if (writes_ != 0) {
    stats.applied_writes.fetch_add(writes_, std::memory_order_relaxed);
    load_.applied_records.fetch_add(writes_, std::memory_order_relaxed);
  }
  if (txns_ != 0) {
    stats.applied_txns.fetch_add(txns_, std::memory_order_relaxed);
  }
  if (deferred_ != 0) {
    stats.deferred_writes.fetch_add(deferred_, std::memory_order_relaxed);
  }
  load_.cpu_ns.fetch_add(static_cast<std::uint64_t>(cpu_ns),
                         std::memory_order_relaxed);
  writes_ = txns_ = deferred_ = 0;
}

std::vector<ReplicaBase::WorkerLoad> ReplicaBase::WorkerLoads() const {
  std::vector<WorkerLoad> loads;
  loads.reserve(loads_.size());
  for (const LoadSlot& slot : loads_) {
    loads.push_back(
        WorkerLoad{slot.applied_records.load(std::memory_order_acquire),
                   slot.cpu_ns.load(std::memory_order_acquire)});
  }
  return loads;
}

void ReplicaBase::VisibilityLoop() {
  using Clock = EventCount::Clock;
  const auto stopped_or_drained = [this] { return stopping() || Drained(); };
  // Advances the prefix; true when every unit handed out is applied. The
  // flag is read first: a segment scheduled after that read is either still
  // numbering units or under the watermark read last.
  const auto applied_all = [this] {
    const bool between_segments = !scheduling_.load(std::memory_order_acquire);
    return ApplyFloor() >= watermark() && between_segments;
  };
  while (true) {
    const Clock::time_point start = Clock::now();
    // Read before the floor: a pass that began drained computes a floor
    // covering the whole log, so it is also the final advance.
    const bool drained = Drained();
    // §7.2: "periodically calculates a new n as the minimum across all c'
    // and then advances c to n".
    const Timestamp n = ApplyFloor();
    apply_floor_.store(n, std::memory_order_release);
    if (n > VisibleTimestamp()) PublishSnapshot(n);
    if (tracker_ != nullptr) tracker_->OnVisible(VisibleTimestamp());
    // The prefix moved: room for the scheduler, maybe a caught-up replica.
    published_.NotifyAll();
    if (drained || stopping()) break;
    // snapshot_interval caps the publish rate: no pass starts within one
    // interval of the one before.
    published_.ParkUntil(stopped_or_drained,
                         start + options_.snapshot_interval);
    if (!scheduling_.load(std::memory_order_acquire) &&
        VisibleTimestamp() >= watermark()) {
      // Everything handed out is published, so nothing can move the floor
      // before the next mark at the prefix's head: park until it lands
      // instead of ticking. Then follow the head until the new work is all
      // applied, for at most one interval, so it publishes in one pass.
      prefix_.AwaitMark(stopped_or_drained);
      const Clock::time_point until =
          Clock::now() + options_.snapshot_interval;
      while (Clock::now() < until && !stopped_or_drained() &&
             !applied_all()) {
        prefix_.AwaitMarkUntil(stopped_or_drained, until);
      }
    }
  }
}

bool ReplicaBase::AwaitPrefixRoom(std::uint64_t end) {
  // Each visibility pass frees room and notifies published_.
  published_.Park([&] { return prefix_.HasRoom(end) || stopping(); });
  return prefix_.HasRoom(end);
}

void ReplicaBase::WaitUntilCaughtUp() {
  // The contract is that the VISIBLE snapshot covers the whole
  // log at return, not merely that every write was applied: the visibility
  // loop publishes asynchronously after the workers finish. (Found by the
  // DST harness under TSan timing.)
  published_.Park(
      [this] { return Drained() && VisibleTimestamp() >= watermark(); });
}

void ReplicaBase::Stop() {
  shutdown_.store(true, std::memory_order_release);
  WakeAll();
  // The scheduler first, so no worker exits before the scheduler's last
  // push: every unit handed out is applied.
  if (!threads_.empty() && threads_.front().joinable()) threads_.front().join();
  CloseQueues();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

}  // namespace c5::replica
