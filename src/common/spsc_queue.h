#ifndef C5_COMMON_SPSC_QUEUE_H_
#define C5_COMMON_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/spin_lock.h"

namespace c5 {

// Bounded single-producer single-consumer ring buffer. Used to ship log
// segments from the primary's log appender to the backup's scheduler ("the
// log is always delivered promptly", §2.4).
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity)
      : capacity_(NextPow2(capacity)), mask_(capacity_ - 1),
        slots_(capacity_) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Returns false if full.
  bool TryPush(T value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail == capacity_) return false;
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Blocks (spinning) until space is available or the queue is closed.
  // Returns false only if closed.
  bool Push(T value) {
    int spins = 0;
    while (!TryPush(value)) {
      if (closed_.load(std::memory_order_acquire)) return false;
      SpinBackoff(spins);
    }
    return true;
  }

  std::optional<T> TryPop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return std::nullopt;
    T value = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  // Blocks (spinning) until an element is available. Returns nullopt once
  // the queue is closed *and* drained.
  std::optional<T> Pop() {
    int spins = 0;
    while (true) {
      if (auto v = TryPop()) return v;
      if (closed_.load(std::memory_order_acquire)) {
        // Re-check: a push may have raced with Close().
        if (auto v = TryPop()) return v;
        return std::nullopt;
      }
      SpinBackoff(spins);
    }
  }

  void Close() { closed_.store(true, std::memory_order_release); }

  std::size_t SizeApprox() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

 private:
  static std::size_t NextPow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::vector<T> slots_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace c5

#endif  // C5_COMMON_SPSC_QUEUE_H_
