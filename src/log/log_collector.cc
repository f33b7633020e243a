#include "log/log_collector.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <thread>

namespace c5::log {

// ---------------------------------------------------------------------------
// TeeCollector / FilteredCollector / BufferCollector / CopyLog

void TeeCollector::LogCommit(RecordSpan records) {
  // The span is borrowed, so every sink can observe the same one.
  for (LogCollector* sink : sinks_) sink->LogCommit(records);
}

void FilteredCollector::LogCommit(RecordSpan records) {
  // The filter re-stamps last_in_txn, so it needs a mutable copy of the
  // surviving records. Thread-local scratch: collectors are called from
  // every committing engine thread.
  thread_local std::vector<LogRecord> kept;
  kept.clear();
  for (const LogRecord& rec : records) {
    if (!keep_(rec)) continue;
    kept.push_back(rec);
    kept.back().last_in_txn = false;
  }
  if (kept.empty()) return;  // no surviving record: drop the txn whole
  kept.back().last_in_txn = true;
  sink_->LogCommit(kept);
}

void BufferCollector::LogCommit(RecordSpan records) {
  SpinLockGuard lock(lock_);
  total_.fetch_add(records.size(), std::memory_order_acq_rel);
  for (const LogRecord& rec : records) {
    records_.push_back(rec);
    records_.back().value = values_.Append(rec.value);
  }
}

std::size_t BufferCollector::DrainInto(std::vector<LogRecord>* out) {
  SpinLockGuard lock(lock_);
  const std::size_t n = records_.size();
  out->insert(out->end(), records_.begin(), records_.end());
  records_.clear();
  return n;
}

std::unique_ptr<Log> CopyLog(const Log& log) {
  auto out = std::make_unique<Log>();
  std::uint64_t seq = 0;
  for (std::size_t s = 0; s < log.NumSegments(); ++s) {
    auto seg = std::make_unique<LogSegment>(seq);
    seg->Reserve(log.segment(s)->size());
    for (const LogRecord& rec : log.segment(s)->records()) {
      LogRecord copy = rec;
      copy.prev_ts = kInvalidTimestamp;
      seg->Append(copy);
    }
    seq += seg->size();
    out->AppendSegment(std::move(seg));
  }
  return out;
}

// ---------------------------------------------------------------------------
// PerThreadLogCollector

PerThreadLogCollector::PerThreadLogCollector(std::size_t segment_records)
    : segment_records_(segment_records),
      shards_(std::make_unique<Shard[]>(kShards)) {}

void PerThreadLogCollector::LogCommit(RecordSpan records) {
  const std::size_t shard_idx =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  Shard& shard = shards_[shard_idx];
  SpinLockGuard lock(shard.lock);
  std::vector<LogRecord> txn(records.begin(), records.end());
  for (LogRecord& rec : txn) rec.value = shard.values.Append(rec.value);
  shard.txns.push_back(std::move(txn));
}

std::size_t PerThreadLogCollector::BufferedTxns() const {
  std::size_t n = 0;
  for (int i = 0; i < kShards; ++i) {
    SpinLockGuard lock(shards_[i].lock);
    n += shards_[i].txns.size();
  }
  return n;
}

Log PerThreadLogCollector::Coalesce() {
  std::vector<std::vector<LogRecord>> all;
  for (int i = 0; i < kShards; ++i) {
    SpinLockGuard lock(shards_[i].lock);
    for (auto& txn : shards_[i].txns) all.push_back(std::move(txn));
    shards_[i].txns.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const std::vector<LogRecord>& a,
               const std::vector<LogRecord>& b) {
              return a.front().commit_ts < b.front().commit_ts;
            });

  Log log;
  std::uint64_t seq = 0;
  std::unique_ptr<LogSegment> open;
  for (auto& txn : all) {
    if (open != nullptr && open->size() + txn.size() > segment_records_ &&
        !open->empty()) {
      seq += open->size();
      log.AppendSegment(std::move(open));
    }
    if (open == nullptr) open = std::make_unique<LogSegment>(seq);
    // Append internalizes the value bytes into the segment's own store, so
    // the shard ropes can be dropped once coalescing is done.
    for (auto& rec : txn) open->Append(rec);
  }
  if (open != nullptr && !open->empty()) log.AppendSegment(std::move(open));
  for (int i = 0; i < kShards; ++i) {
    SpinLockGuard lock(shards_[i].lock);
    shards_[i].values.Clear();
  }
  return log;
}

// ---------------------------------------------------------------------------
// OnlineLogCollector

OnlineLogCollector::OnlineLogCollector(std::size_t segment_records)
    : segment_records_(segment_records) {
  subscribers_.push_back(std::make_unique<Subscriber>());
}

OnlineLogCollector::~OnlineLogCollector() = default;

MpmcQueue<LogSegment*>* OnlineLogCollector::AddSubscriber() {
  MutexLock lock(mu_);
  subscribers_.push_back(std::make_unique<Subscriber>());
  return subscribers_.back()->channel.get();
}

std::unique_ptr<ChannelSegmentSource> OnlineLogCollector::MakeSource(
    MpmcQueue<LogSegment*>* channel) {
  Subscriber* lane = nullptr;
  {
    MutexLock lock(mu_);
    for (auto& sub : subscribers_) {
      if (sub->channel.get() == channel) lane = sub.get();
    }
  }
  assert(lane != nullptr && "channel is not a lane of this collector");
  return std::make_unique<ChannelSegmentSource>(
      channel, [lane](std::uint64_t end_seq) { lane->Release(end_seq); });
}

std::uint64_t OnlineLogCollector::RetainedSegments() const {
  MutexLock lock(mu_);
  std::uint64_t n = 0;
  for (const auto& sub : subscribers_) n += sub->Retained();
  return n;
}

void OnlineLogCollector::Subscriber::Store(std::unique_ptr<LogSegment> seg) {
  SpinLockGuard lock(store_lock);
  store.push_back(std::move(seg));
}

void OnlineLogCollector::Subscriber::Release(std::uint64_t end_seq) {
  {
    SpinLockGuard lock(store_lock);
    std::size_t i = head;
    while (i < store.size() &&
           store[i]->base_seq() + store[i]->size() <= end_seq) {
      graveyard.push_back(std::move(store[i]));
      ++i;
    }
    head = i;
    // Compact once the dead prefix dominates: amortized O(1) per segment.
    if (head * 2 >= store.size()) {
      store.erase(store.begin(),
                  store.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
  graveyard.clear();  // frees records and (last-lane) value bytes, unlocked
}

std::size_t OnlineLogCollector::Subscriber::Retained() const {
  SpinLockGuard lock(store_lock);
  return store.size() - head;
}

OnlineLogCollector::PendingTxn* OnlineLogCollector::AcquirePending() {
  if (!pending_free_.empty()) {
    PendingTxn* buf = pending_free_.back();
    pending_free_.pop_back();
    return buf;
  }
  pending_pool_.push_back(std::make_unique<PendingTxn>());
  return pending_pool_.back().get();
}

void OnlineLogCollector::ShipLocked() {
  if (open_ == nullptr || open_->empty()) return;
  next_seq_ += open_->size();
  shipped_.fetch_add(1, std::memory_order_relaxed);
  // Subscriber 0 receives the sealed segment itself; the rest get
  // shared-payload views (private record array, refcounted value bytes).
  for (std::size_t i = 1; i < subscribers_.size(); ++i) {
    auto view = std::make_unique<LogSegment>(*open_, kShareValues);
    LogSegment* raw = view.get();
    subscribers_[i]->Store(std::move(view));
    subscribers_[i]->channel->Push(raw);
  }
  LogSegment* raw = open_.get();
  subscribers_[0]->Store(std::move(open_));
  subscribers_[0]->channel->Push(raw);
}

void OnlineLogCollector::DrainLocked(Timestamp horizon) {
  while (!pending_.empty() && pending_.top()->ts < horizon) {
    PendingTxn* txn = pending_.top();
    pending_.pop();
    if (open_ == nullptr) {
      open_ = std::make_unique<LogSegment>(next_seq_);
      open_->Reserve(segment_records_);
    }
    for (const LogRecord& rec : txn->records) open_->Append(rec);
    txn->records.clear();
    txn->values.clear();  // capacity retained for reuse
    pending_free_.push_back(txn);
    if (open_->size() >= segment_records_) ShipLocked();
  }
}

void OnlineLogCollector::LogCommit(RecordSpan records) {
  const Timestamp horizon =
      horizon_fn_ ? horizon_fn_() : kMaxTimestamp;
  MutexLock lock(mu_);
  PendingTxn* txn = AcquirePending();
  txn->ts = records.front().commit_ts;
  txn->records.assign(records.begin(), records.end());
  // Stage the value bytes in the pooled buffer. The buffer may reallocate
  // while filling, so views are fixed up afterwards from recorded offsets.
  std::size_t off = 0;
  for (const LogRecord& rec : records) off += rec.value.size();
  if (txn->values.capacity() < off) txn->values.reserve(off);
  txn->values.clear();
  for (LogRecord& rec : txn->records) {
    const std::size_t at = txn->values.size();
    txn->values.append(rec.value.data(), rec.value.size());
    rec.value = std::string_view(txn->values.data() + at, rec.value.size());
  }
  pending_.push(txn);
  DrainLocked(horizon);
  // A fence and a load unless the flusher is parked (AwaitCommit): then
  // this commit wakes it, and it ships at once.
  logged_.Notify();
}

bool OnlineLogCollector::Flush() {
  const Timestamp horizon =
      horizon_fn_ ? horizon_fn_() : kMaxTimestamp;
  MutexLock lock(mu_);
  const bool found = HasUnshippedLocked();
  DrainLocked(horizon);
  ShipLocked();
  return found;
}

void OnlineLogCollector::AwaitCommit(const std::function<bool()>& stop) {
  logged_.Park([&] {
    if (stop()) return true;
    MutexLock lock(mu_);
    return HasUnshippedLocked();
  });
}

void OnlineLogCollector::Finish() {
  // Collect the channel pointers under the lock, then close outside it:
  // Close() wakes blocked consumers which may immediately re-enter this
  // collector (e.g. to report lag), and channel objects are stable once
  // created (subscribers_ only grows).
  std::vector<MpmcQueue<LogSegment*>*> channels;
  {
    MutexLock lock(mu_);
    DrainLocked(kMaxTimestamp);
    ShipLocked();
    channels.reserve(subscribers_.size());
    for (auto& sub : subscribers_) channels.push_back(sub->channel.get());
  }
  for (MpmcQueue<LogSegment*>* ch : channels) ch->Close();
}

MpmcQueue<LogSegment*>& OnlineLogCollector::channel() {
  MutexLock lock(mu_);
  return *subscribers_[0]->channel;
}

}  // namespace c5::log
