#ifndef C5_COMMON_MPMC_QUEUE_H_
#define C5_COMMON_MPMC_QUEUE_H_

#include <atomic>
#include <deque>
#include <optional>
#include <span>

#include "common/event_count.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace c5 {

// Unbounded multi-producer multi-consumer FIFO queue. Lock-based with a
// spin-then-park consumer: at replica rates (hundreds of thousands of
// hand-offs per second) the dominant cost of a naive mutex+condvar queue is
// wakeup latency whenever the queue oscillates around empty, so Pop() polls
// for EventCount::kSpinBudget before it parks on the event count, and a push
// pays for a wakeup only when a consumer is actually parked.
template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(LockRank rank = LockRank::kQueue) : mu_(rank) {}
  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  void Push(T value) {
    {
      MutexLock lock(mu_);
      items_.push_back(std::move(value));
    }
    size_hint_.fetch_add(1, std::memory_order_release);
    nonempty_.Notify();
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
    if (items.size() > 1) {
      nonempty_.NotifyAll();
    } else {
      nonempty_.Notify();
    }
  }

  // Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() {
    // The size hint keeps spinners off the mutex while the queue is empty —
    // otherwise a pack of spinning consumers convoys the producer.
    std::optional<T> value;
    nonempty_.Await([&] {
      value = TryPop();
      return value.has_value() || Drained();
    });
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
    nonempty_.NotifyAll();
  }

  // Consumers past the spin budget, parked (or about to park).
  int Parked() const { return nonempty_.Waiters(); }

  std::size_t Size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  // Closed with nothing left: Pop() returns nullopt.
  bool Drained() {
    if (!closed_flag_.load(std::memory_order_acquire)) return false;
    MutexLock lock(mu_);
    return closed_ && items_.empty();
  }

  mutable Mutex mu_;
  std::deque<T> items_ C5_GUARDED_BY(mu_);
  bool closed_ C5_GUARDED_BY(mu_) = false;
  std::atomic<bool> closed_flag_{false};
  EventCount nonempty_;
  alignas(64) std::atomic<std::size_t> size_hint_{0};
};

}  // namespace c5

#endif  // C5_COMMON_MPMC_QUEUE_H_
