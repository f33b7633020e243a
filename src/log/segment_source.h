#ifndef C5_LOG_SEGMENT_SOURCE_H_
#define C5_LOG_SEGMENT_SOURCE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>

#include "common/event_count.h"
#include "common/mpmc_queue.h"
#include "log/log_segment.h"

namespace c5::log {

// Uniform input for replica protocols: a stream of log segments in log order.
// Next() blocks until a segment is available and returns nullptr at
// end-of-log. Only the backup's scheduler thread calls Next().
//
// Segment lifetime is release-driven. A delivered segment stays valid until
// the consumer calls Release(end_seq) with end_seq >= the segment's end
// (base_seq + size): the call means "I hold no pointer into any record
// below end_seq". The source may then free those segments and pass the
// release upstream (an OnlineLogCollector lane, a ShipServer ack). A source
// frees delivered segments in delivery order and stops at the first
// non-empty one whose end exceeds end_seq. Release is called only on the
// thread that calls Next(). The default keeps every segment for the
// source's lifetime, which is what offline logs and the protocols that
// never release (the lazy and baseline ones) rely on.
class SegmentSource {
 public:
  virtual ~SegmentSource() = default;
  virtual LogSegment* Next() = 0;
  virtual void Release(std::uint64_t end_seq) { (void)end_seq; }
};

// Replays a prebuilt (coalesced) log: the offline methodology the paper uses
// for C5-Cicada throughput experiments (§7.1).
class OfflineSegmentSource : public SegmentSource {
 public:
  explicit OfflineSegmentSource(Log* log) : log_(log) {}

  LogSegment* Next() override {
    if (pos_ >= log_->NumSegments()) return nullptr;
    return log_->segment(pos_++);
  }

 private:
  Log* log_;
  std::size_t pos_ = 0;
};

// Delivers only the first `count` segments of a log: the prefix that
// reached a backup before its primary (or shipping channel) failed.
// Segments are transaction aligned, so any prefix of segments is a
// transaction-aligned prefix. Used by the failover tests and by the DST
// harness's promotion oracle.
class PrefixSegmentSource : public SegmentSource {
 public:
  PrefixSegmentSource(Log* log, std::size_t count)
      : log_(log), count_(std::min(count, log->NumSegments())) {}

  LogSegment* Next() override {
    return pos_ < count_ ? log_->segment(pos_++) : nullptr;
  }

 private:
  Log* log_;
  const std::size_t count_;
  std::size_t pos_ = 0;
};

// Wraps a source and delays each segment's delivery (network-latency /
// slow-shipping injection for tests and benches). `delay_fn` is called with
// the segment index and returns the delay to sleep before handing it over.
class DelayedSegmentSource : public SegmentSource {
 public:
  using DelayFn = std::function<std::chrono::microseconds(std::size_t)>;

  DelayedSegmentSource(SegmentSource* inner, DelayFn delay_fn)
      : inner_(inner), delay_fn_(std::move(delay_fn)) {}

  LogSegment* Next() override {
    LogSegment* seg = inner_->Next();
    if (seg != nullptr) {
      const auto d = delay_fn_(index_++);
      if (d.count() > 0) std::this_thread::sleep_for(d);
    }
    return seg;
  }

  void Release(std::uint64_t end_seq) override { inner_->Release(end_seq); }

 private:
  SegmentSource* inner_;
  DelayFn delay_fn_;
  std::size_t index_ = 0;
};

// Delivers the first `gate_at` segments of a log, then blocks until Open()
// is called, then delivers the rest (replica stall injection: models a
// paused shipping channel or an unresponsive backup).
class GatedSegmentSource : public SegmentSource {
 public:
  GatedSegmentSource(Log* log, std::size_t gate_at)
      : log_(log), gate_at_(gate_at) {}

  void Open() {
    open_.store(true, std::memory_order_release);
    opened_.NotifyAll();
  }

  LogSegment* Next() override {
    if (pos_ >= log_->NumSegments()) return nullptr;
    if (pos_ >= gate_at_) {
      opened_.Park([this] { return open_.load(std::memory_order_acquire); });
    }
    return log_->segment(pos_++);
  }

 private:
  Log* log_;
  const std::size_t gate_at_;
  std::atomic<bool> open_{false};
  EventCount opened_;
  std::size_t pos_ = 0;
};

// Streams segments from an online primary through a channel; Next() parks
// on an empty one (MpmcQueue::Pop). The segments belong to whoever feeds
// the channel; `release` (optional) passes Release upstream to it —
// OnlineLogCollector::MakeSource wires its lane's store here. Without it
// the feeder keeps every segment.
class ChannelSegmentSource : public SegmentSource {
 public:
  using ReleaseFn = std::function<void(std::uint64_t)>;

  explicit ChannelSegmentSource(MpmcQueue<LogSegment*>* channel,
                                ReleaseFn release = nullptr)
      : channel_(channel), release_(std::move(release)) {}

  LogSegment* Next() override {
    auto seg = channel_->Pop();
    return seg.has_value() ? *seg : nullptr;
  }

  void Release(std::uint64_t end_seq) override {
    if (release_) release_(end_seq);
  }

 private:
  MpmcQueue<LogSegment*>* channel_;
  ReleaseFn release_;
};

}  // namespace c5::log

#endif  // C5_LOG_SEGMENT_SOURCE_H_
