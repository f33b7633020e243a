#ifndef C5_LOG_LOG_SEGMENT_H_
#define C5_LOG_LOG_SEGMENT_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "log/log_record.h"

namespace c5::log {

// Refcounted value-byte storage for a segment. One store can back several
// LogSegments: the online shipping fan-out builds a segment ONCE and hands
// each backup a view that copies only the (POD) record array while sharing
// the value bytes — replicas mutate per-record replay state (prev_ts) in
// place, so the record array must be private per consumer, but the payload
// bytes are immutable after sealing and safe to share.
class SegmentValueStore {
 public:
  static SegmentValueStore* New() { return new SegmentValueStore(); }

  std::string_view Append(std::string_view bytes) {
    return rope_.Append(bytes);
  }

  void AddRef() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void DropRef() {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

 private:
  SegmentValueStore() : rope_(&ShippingArena()) {}
  ~SegmentValueStore() = default;

  ArenaRope rope_;
  std::atomic<std::uint32_t> refs_{1};
};

// Tag selecting the shared-payload view constructor below.
struct ShareValuesTag {};
inline constexpr ShareValuesTag kShareValues{};

// A fixed-capacity run of log records. Mirrors the paper's segment design
// (§7.1): a header carries a `preprocessed` flag set by the C5 scheduler
// once every record's prev_timestamp has been computed, and "transactions
// never span segment boundaries".
//
// The segment owns (or shares — see SegmentValueStore) the bytes its
// records' values view: Append() internalizes the value into the segment's
// store, so callers may pass records whose values point at short-lived
// buffers.
//
// base_seq is the global position of records[0] in the whole log; replicas
// that apply writes out of order use (base_seq + i) with a prefix tracker to
// compute their monotonic-prefix-consistent visibility watermark.
class LogSegment {
 public:
  explicit LogSegment(std::uint64_t base_seq)
      : base_seq_(base_seq), values_(SegmentValueStore::New()) {}

  // Shared-payload view: a private copy of `src`'s record array (each
  // consumer schedules prev_ts independently) over the same value bytes.
  LogSegment(const LogSegment& src, ShareValuesTag)
      : base_seq_(src.base_seq_),
        records_(src.records_),
        values_(src.values_) {
    values_->AddRef();
  }

  ~LogSegment() { values_->DropRef(); }

  LogSegment(const LogSegment&) = delete;
  LogSegment& operator=(const LogSegment&) = delete;

  std::uint64_t base_seq() const { return base_seq_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  // The record array lives in the shipping arena like the value bytes: a
  // released segment's array recycles for the next one.
  using RecordArray = std::vector<LogRecord, ShippingAllocator<LogRecord>>;

  LogRecord& record(std::size_t i) { return records_[i]; }
  const LogRecord& record(std::size_t i) const { return records_[i]; }
  RecordArray& records() { return records_; }
  const RecordArray& records() const { return records_; }

  void Reserve(std::size_t n) { records_.reserve(n); }

  // By value: the record is a POD-sized copy, and a caller may legitimately
  // re-append an element of this very segment (CopyLog-style flows).
  void Append(LogRecord rec) {
    rec.value = values_->Append(rec.value);
    records_.push_back(rec);
  }

  Timestamp MinTimestamp() const {
    return records_.empty() ? kInvalidTimestamp : records_.front().commit_ts;
  }
  Timestamp MaxTimestamp() const {
    return records_.empty() ? kInvalidTimestamp : records_.back().commit_ts;
  }

  bool preprocessed() const {
    return preprocessed_.load(std::memory_order_acquire);
  }
  void MarkPreprocessed() {
    preprocessed_.store(true, std::memory_order_release);
  }
  void ResetReplayState() {
    preprocessed_.store(false, std::memory_order_relaxed);
    for (LogRecord& r : records_) r.prev_ts = kInvalidTimestamp;
  }

 private:
  const std::uint64_t base_seq_;
  RecordArray records_;
  SegmentValueStore* values_;
  std::atomic<bool> preprocessed_{false};
};

// An immutable-once-built sequence of segments: the backup's input. Owns the
// segments; replicas receive raw pointers and mutate only replay state
// (prev_ts / preprocessed), which ResetReplayState() clears between replays
// so several protocols can be benchmarked against the same log.
class Log {
 public:
  Log() = default;
  Log(Log&&) = default;
  Log& operator=(Log&&) = default;

  LogSegment* AppendSegment(std::unique_ptr<LogSegment> seg) {
    total_records_ += seg->size();
    segments_.push_back(std::move(seg));
    return segments_.back().get();
  }

  std::size_t NumSegments() const { return segments_.size(); }
  std::size_t NumRecords() const { return total_records_; }
  LogSegment* segment(std::size_t i) { return segments_[i].get(); }
  const LogSegment* segment(std::size_t i) const {
    return segments_[i].get();
  }

  // Number of transactions = number of last_in_txn markers.
  std::size_t CountTransactions() const {
    std::size_t n = 0;
    for (const auto& seg : segments_) {
      for (const LogRecord& r : seg->records()) n += r.last_in_txn ? 1 : 0;
    }
    return n;
  }

  Timestamp MaxTimestamp() const {
    for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
      if (!(*it)->empty()) return (*it)->MaxTimestamp();
    }
    return kInvalidTimestamp;
  }

  void ResetReplayState() {
    for (auto& seg : segments_) seg->ResetReplayState();
  }

 private:
  std::vector<std::unique_ptr<LogSegment>> segments_;
  std::size_t total_records_ = 0;
};

}  // namespace c5::log

#endif  // C5_LOG_LOG_SEGMENT_H_
