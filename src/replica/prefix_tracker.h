#ifndef C5_REPLICA_PREFIX_TRACKER_H_
#define C5_REPLICA_PREFIX_TRACKER_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "common/event_count.h"
#include "common/types.h"

namespace c5::replica {

// Tracks out-of-order completion of numbered units of work and maps the
// contiguous completed prefix to a transaction-aligned visibility timestamp.
//
// Replica protocols that apply writes out of log order cannot expose state
// as writes land — that would violate monotonic prefix consistency (§4: a
// later write may be applied before an earlier one). Instead units are
// numbered in log order — records (page/table granularity, the queue-based
// C5 variant), transactions (KuaFu, C5-MyRocks) or batches (C5) — and
// workers Mark() each one once it is applied; a single advancer thread
// calls Advance(), which walks the contiguous prefix and publishes the
// commit timestamp of the last *complete transaction* inside it. That
// timestamp is a valid MPC read point: every record of every transaction at
// or below it has been applied.
//
// Concurrency contract: any thread may Mark(); exactly one thread calls
// Advance() and AwaitMark(). The thread that numbers units hands out an
// index only once HasRoom() holds for it, so Mark() never waits: a worker
// that waited to mark while holding older unmarked work could wait forever.
class PrefixTracker {
 public:
  explicit PrefixTracker(std::size_t capacity)
      : capacity_(NextPow2(capacity)),
        mask_(capacity_ - 1),
        done_(new std::atomic<std::uint8_t>[capacity_]),
        txn_ts_(new std::atomic<Timestamp>[capacity_]) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      done_[i].store(0, std::memory_order_relaxed);
      txn_ts_[i].store(kInvalidTimestamp, std::memory_order_relaxed);
    }
  }

  PrefixTracker(const PrefixTracker&) = delete;
  PrefixTracker& operator=(const PrefixTracker&) = delete;

  // Marks unit `seq` applied. If the unit ends a transaction, pass the
  // transaction's commit timestamp; else kInvalidTimestamp. HasRoom(seq + 1)
  // held when `seq` was handed out.
  void Mark(std::uint64_t seq, Timestamp txn_end_ts) {
    assert(seq < watermark() + capacity_ && "numbered without HasRoom()");
    const std::size_t slot = seq & mask_;
    if (txn_end_ts != kInvalidTimestamp) {
      txn_ts_[slot].store(txn_end_ts, std::memory_order_relaxed);
    }
    done_[slot].store(1, std::memory_order_release);
    // Only the unit at the watermark can let a parked advancer move, and the
    // watermark stands still while it is parked.
    marked_.NotifyIf(
        [&] { return seq == watermark_.load(std::memory_order_relaxed); });
  }

  // The advancer: parks until the unit at the watermark is marked, so
  // Advance() can move, or until wake() holds (AwaitMarkUntil: or until
  // `deadline`); whoever makes wake() true calls WakeAdvancer().
  template <typename Wake>
  void AwaitMark(Wake wake) {
    marked_.Park([&] { return HeadMarked() || wake(); });
  }
  template <typename Wake>
  void AwaitMarkUntil(Wake wake, EventCount::Clock::time_point deadline) {
    marked_.ParkUntil([&] { return HeadMarked() || wake(); }, deadline);
  }
  void WakeAdvancer() { marked_.NotifyAll(); }

  // Advances the watermark over completed units, which frees their slots;
  // returns the latest transaction-aligned visibility timestamp (monotonic).
  Timestamp Advance() {
    std::uint64_t w = watermark_.load(std::memory_order_relaxed);
    Timestamp vis = visible_ts_.load(std::memory_order_relaxed);
    while (done_[w & mask_].load(std::memory_order_acquire) != 0) {
      const std::size_t slot = w & mask_;
      const Timestamp ts = txn_ts_[slot].load(std::memory_order_relaxed);
      if (ts != kInvalidTimestamp) {
        // Running MAX, not last-walked: under at-least-once delivery a
        // redelivered (stale) transaction can sit after newer ones in the
        // applied prefix; its old timestamp is already covered and must not
        // shadow the newest boundary in this walk (found by DST).
        if (ts > vis) vis = ts;
        txn_ts_[slot].store(kInvalidTimestamp, std::memory_order_relaxed);
      }
      done_[slot].store(0, std::memory_order_relaxed);
      ++w;
      // The watermark store releases the slot for reuse (HasRoom()).
      watermark_.store(w, std::memory_order_release);
    }
    visible_ts_.store(vis, std::memory_order_release);
    return vis;
  }

  std::uint64_t watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }
  // True when every index below `end` can be marked without waiting.
  bool HasRoom(std::uint64_t end) const {
    return end <= watermark() + capacity_;
  }
  Timestamp visible_ts() const {
    return visible_ts_.load(std::memory_order_acquire);
  }

 private:
  bool HeadMarked() const {
    return done_[watermark() & mask_].load(std::memory_order_acquire) != 0;
  }

  static std::size_t NextPow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> done_;
  std::unique_ptr<std::atomic<Timestamp>[]> txn_ts_;
  alignas(64) std::atomic<std::uint64_t> watermark_{0};
  alignas(64) std::atomic<Timestamp> visible_ts_{kInvalidTimestamp};
  EventCount marked_;
};

}  // namespace c5::replica

#endif  // C5_REPLICA_PREFIX_TRACKER_H_
