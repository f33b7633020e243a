#ifndef C5_COMMON_EVENT_COUNT_H_
#define C5_COMMON_EVENT_COUNT_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/mutex.h"
#include "common/spin_lock.h"

namespace c5 {

// The one wait primitive between commit and visibility: an event count.
// A waiter re-checks its own condition after announcing itself, and parks
// on a sequence number that every notification advances, so no notification
// that lands between the check and the park is lost:
//
//   const EventCount::Key key = ev.PrepareWait();
//   if (ready()) { ev.CancelWait(); } else { ev.Wait(key); }
//
// and the notifier changes the state the condition reads, then calls
// Notify(). Await, Park and ParkUntil wrap that loop around a `ready`
// predicate. The condition's state needs no lock of its own, and Notify()
// costs a fence and one load while nobody waits, so a hot path (a queue
// push, a prefix mark, a logged commit) may notify on every event.
class EventCount {
 public:
  using Key = std::uint64_t;
  using Clock = std::chrono::steady_clock;

  // Await()'s polls before it parks. Modest on purpose: on a host with fewer
  // cores than threads, a long spin burns the quantum the producer needs to
  // refill the queue (c5bench tpcc on 4 vCPUs: C5-MyRocks lag p50 0.67 ms
  // at 2048 against 0.73 ms at 16384). The other users lose nothing to the
  // shorter spin: offline KuaFu, page and table replays of a 2M-write log
  // ran as fast at 2048 as at 16384 (docs/PERFORMANCE.md).
  static constexpr int kSpinBudget = 2048;

  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  // Announces a waiter; the caller then re-checks its condition and either
  // calls CancelWait() or Wait(key) with the returned key.
  Key PrepareWait() {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    // Pairs with Announce()'s fence: either the notifier sees this waiter or
    // the re-check that follows sees the notifier's state.
    Fence();
    return epoch_.load(std::memory_order_acquire);
  }

  void CancelWait() { waiters_.fetch_sub(1, std::memory_order_relaxed); }

  // Parks until a notification after PrepareWait() returned `key`.
  // Returns at once when one already happened.
  void Wait(Key key) {
    {
      MutexLock lock(mu_);
      while (epoch_.load(std::memory_order_relaxed) == key) cv_.Wait(lock);
    }
    CancelWait();
  }

  // Wait() with a deadline; false when the deadline passed first.
  bool WaitUntil(Key key, Clock::time_point deadline) {
    bool notified = true;
    {
      MutexLock lock(mu_);
      while (epoch_.load(std::memory_order_relaxed) == key) {
        if (cv_.WaitUntil(lock, deadline) == std::cv_status::timeout) {
          notified = epoch_.load(std::memory_order_relaxed) != key;
          break;
        }
      }
    }
    CancelWait();
    return notified;
  }

  // Wakes one parked waiter (and lets every announced one re-check).
  void Notify() {
    if (Announce([] { return true; })) cv_.NotifyOne();
  }

  // Notify() only if `due()` also holds. `due` is read after the fence, so it
  // may test state that a waiter's condition reads (a prefix's head) to skip
  // wake-ups that cannot make that condition true.
  template <typename Due>
  void NotifyIf(Due due) {
    if (Announce(due)) cv_.NotifyOne();
  }

  // Wakes every parked waiter.
  void NotifyAll() {
    if (Announce([] { return true; })) cv_.NotifyAll();
  }

  // Spins kSpinBudget polls of `ready`, then parks until it holds.
  template <typename Ready>
  void Await(Ready ready) {
    for (int spin = 0; spin < kSpinBudget; ++spin) {
      if (ready()) return;
      CpuRelax();
    }
    Park(ready);
  }

  // Parks until `ready` holds, without spinning first: for waits whose
  // notifier is known to be far off (a timer-paced producer, an idle one).
  template <typename Ready>
  void Park(Ready ready) {
    while (!ready()) {
      const Key key = PrepareWait();
      if (ready()) {
        CancelWait();
        return;
      }
      Wait(key);
    }
  }

  // Park() with a deadline; returns ready() as last evaluated.
  template <typename Ready>
  bool ParkUntil(Ready ready, Clock::time_point deadline) {
    while (!ready()) {
      if (Clock::now() >= deadline) return false;
      const Key key = PrepareWait();
      if (ready()) {
        CancelWait();
        return true;
      }
      WaitUntil(key, deadline);
    }
    return true;
  }

  // Announced waiters: parked, or between PrepareWait() and Wait().
  int Waiters() const { return waiters_.load(std::memory_order_acquire); }

 private:
  // Advances the epoch if anyone waits and `due()`; true when a wake-up is
  // due.
  template <typename Due>
  bool Announce(Due due) {
    Fence();
    if (waiters_.load(std::memory_order_relaxed) == 0 || !due()) return false;
    {
      // Under mu_, so a waiter between its epoch check and cv_.Wait()
      // cannot miss the advance.
      MutexLock lock(mu_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    return true;
  }

  // The store-load order between a state change and a waiter-count read.
  // ThreadSanitizer runs the fence but does not model it (GCC warns under
  // -Wtsan); nothing here relies on it for happens-before, which the
  // condition's own state and mu_ provide, so every build runs this path.
  static void Fence() {
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
    std::atomic_thread_fence(std::memory_order_seq_cst);
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic pop
#endif
  }

  // Notify() may run under any other lock (a queue push under the log
  // sequencer's mutex), and nothing is acquired inside this one.
  Mutex mu_{LockRank::kLeaf};
  CondVar cv_;
  std::atomic<Key> epoch_{0};
  std::atomic<int> waiters_{0};
};

}  // namespace c5

#endif  // C5_COMMON_EVENT_COUNT_H_
