#ifndef C5_COMMON_CLOCK_H_
#define C5_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>

#include "common/types.h"

namespace c5 {

// Wall-clock nanoseconds on a monotonic clock; used for replication-lag
// measurement (f_b(T) - f_p(T) in the paper's notation).
inline std::int64_t MonotonicNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU nanoseconds consumed by the CALLING thread. Used for the fleet-model
// worker-scaling accounting: on a host with fewer cores than replay workers,
// wall-clock conflates workers with their co-scheduled peers, while per-thread
// CPU time measures what each worker would cost on dedicated hardware.
// Falls back to the monotonic clock where the per-thread clock is missing.
inline std::int64_t ThreadCpuNowNanos() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
#endif
  return MonotonicNowNanos();
}

// Commit-timestamp source shared by all primary threads.
//
// Cicada uses loosely synchronized per-thread clocks; a single fetch-add
// counter produces the same observable artifact (a total order of unique,
// increasing timestamps whose per-row order matches version-chain order) with
// a few nanoseconds of contention that is negligible at this library's
// throughputs. Using a central counter also makes the 2PL engine's commit-LSN
// assignment and the MVTSO engine's timestamp assignment interchangeable.
class TxnClock {
 public:
  TxnClock() : next_(1) {}

  TxnClock(const TxnClock&) = delete;
  TxnClock& operator=(const TxnClock&) = delete;

  // Returns a unique, strictly increasing timestamp. Never returns
  // kInvalidTimestamp (0).
  //
  // Both operations are seq_cst (free on x86: the RMW is a locked add, the
  // load a plain move) so garbage-collection horizons can order a clock
  // read against a scan of registered readers (txn::ActiveTxnTracker):
  // a reader that registers before it draws or reads a timestamp, and is
  // missed by a scan that followed a clock read, gets a timestamp above
  // that read.
  Timestamp Next() { return next_.fetch_add(1, std::memory_order_seq_cst); }

  // Largest timestamp handed out so far (approximate under concurrency).
  Timestamp Latest() const {
    return next_.load(std::memory_order_seq_cst) - 1;
  }

  // Test hook: restart the clock.
  void Reset(Timestamp start = 1) {
    next_.store(start, std::memory_order_relaxed);
  }

 private:
  std::atomic<Timestamp> next_;
};

// Simple stopwatch for benchmark phases.
class Stopwatch {
 public:
  Stopwatch() : start_(MonotonicNowNanos()) {}
  void Restart() { start_ = MonotonicNowNanos(); }
  std::int64_t ElapsedNanos() const { return MonotonicNowNanos() - start_; }
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

 private:
  std::int64_t start_;
};

}  // namespace c5

#endif  // C5_COMMON_CLOCK_H_
