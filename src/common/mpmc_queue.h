#ifndef C5_COMMON_MPMC_QUEUE_H_
#define C5_COMMON_MPMC_QUEUE_H_

#include <atomic>
#include <deque>
#include <optional>
#include <span>

#include "common/mutex.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"

namespace c5 {

// Unbounded multi-producer multi-consumer FIFO queue. Lock-based with a
// spin-then-block consumer: at replica rates (hundreds of thousands of
// hand-offs per second) the dominant cost of a naive mutex+condvar queue is
// wakeup latency whenever the queue oscillates around empty, so Pop() polls
// briefly before sleeping and Push() only notifies when a consumer is
// actually blocked.
template <typename T>
class MpmcQueue {
 public:
  // Pop()'s polls before it parks. Modest on purpose: on a host with fewer
  // cores than threads, a long spin burns the quantum the producer needs to
  // refill the queue (c5bench tpcc on 4 vCPUs: C5-MyRocks lag p50 0.67 ms
  // at 2048 against 0.73 ms at 16384). The other users lose nothing to the
  // shorter spin: offline KuaFu, page and table replays of a 2M-write log
  // ran as fast at 2048 as at 16384 (docs/PERFORMANCE.md).
  static constexpr int kSpinBudget = 2048;

  explicit MpmcQueue(LockRank rank = LockRank::kQueue) : mu_(rank) {}
  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  void Push(T value) {
    {
      MutexLock lock(mu_);
      items_.push_back(std::move(value));
    }
    size_hint_.fetch_add(1, std::memory_order_release);
    if (waiters_.load(std::memory_order_acquire) > 0) cv_.NotifyOne();
  }

  // Appends `items` in order under ONE lock acquisition and at most one
  // wakeup call. A producer that hands off a batch (a replica's whole
  // segment) would otherwise pay a futex notify per item, which on an
  // oversubscribed host comes straight out of the primary's CPU budget.
  // Several items meeting a parked consumer wake every parked consumer;
  // spinning ones see the size hint.
  void PushAll(std::span<const T> items) {
    if (items.empty()) return;
    {
      MutexLock lock(mu_);
      items_.insert(items_.end(), items.begin(), items.end());
    }
    size_hint_.fetch_add(items.size(), std::memory_order_release);
    if (waiters_.load(std::memory_order_acquire) > 0) {
      if (items.size() > 1) {
        cv_.NotifyAll();
      } else {
        cv_.NotifyOne();
      }
    }
  }

  // Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() {
    // Spin phase: poll without sleeping (bounded, then fall back to the
    // condition variable so idle consumers don't burn a core forever). The
    // size hint keeps spinners off the mutex while the queue is empty —
    // otherwise a pack of spinning consumers convoys the producer.
    for (int spin = 0; spin < kSpinBudget; ++spin) {
      if (auto v = TryPop()) return v;
      if (closed_flag_.load(std::memory_order_acquire)) {
        MutexLock lock(mu_);
        if (items_.empty()) return std::nullopt;
      }
      CpuRelax();
    }
    MutexLock lock(mu_);
    waiters_.fetch_add(1, std::memory_order_acq_rel);
    // Explicit loop (not a predicate lambda): the thread-safety analysis
    // must see the guarded reads performed while mu_ is held.
    while (items_.empty() && !closed_) cv_.Wait(lock);
    waiters_.fetch_sub(1, std::memory_order_acq_rel);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    size_hint_.fetch_sub(1, std::memory_order_release);
    return value;
  }

  // Never blocks. An empty queue costs one atomic load and no lock, so a
  // consumer with other work may poll it on every iteration.
  std::optional<T> TryPop() {
    if (size_hint_.load(std::memory_order_acquire) == 0) return std::nullopt;
    MutexLock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    size_hint_.fetch_sub(1, std::memory_order_release);
    return value;
  }

  void Close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    closed_flag_.store(true, std::memory_order_release);
    cv_.NotifyAll();
  }

  // Consumers past the spin budget, parked on the condition variable.
  int Parked() const { return waiters_.load(std::memory_order_acquire); }

  std::size_t Size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<T> items_ C5_GUARDED_BY(mu_);
  bool closed_ C5_GUARDED_BY(mu_) = false;
  std::atomic<bool> closed_flag_{false};
  std::atomic<int> waiters_{0};
  alignas(64) std::atomic<std::size_t> size_hint_{0};
};

}  // namespace c5

#endif  // C5_COMMON_MPMC_QUEUE_H_
