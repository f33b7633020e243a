#include "sim/dst_channel.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "log/wire.h"

// The ASan interface header turns its region macros into no-ops when ASan
// is off; without the header, so do these.
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace c5::sim {

namespace {

// One datagram on the simulated wire. `pristine` indexes the clean frame to
// retransmit if this one is rejected.
struct Frame {
  std::string bytes;
  std::size_t pristine;
};

enum class FaultKind : int {
  kNone = 0,
  kCorrupt = 1,
  kTruncate = 2,
  kDuplicate = 3,
  kDelay = 4,
};

// Poisons / unpoisons a segment's record array under ASan.
void SetRecordsPoisoned(const log::LogSegment& seg, bool poisoned) {
  const void* data = seg.records().data();
  const std::size_t bytes = seg.size() * sizeof(log::LogRecord);
  if (bytes == 0) return;
  if (poisoned) {
    ASAN_POISON_MEMORY_REGION(data, bytes);
  } else {
    ASAN_UNPOISON_MEMORY_REGION(data, bytes);
  }
}

}  // namespace

DstChannel::Source::Source(const std::vector<log::LogSegment*>* delivered,
                           std::size_t begin, std::size_t end)
    : delivered_(delivered),
      begin_(begin),
      pos_(begin),
      end_(end),
      released_(begin) {
  for (std::size_t i = begin; i < end; ++i) {
    SetRecordsPoisoned(*(*delivered)[i], false);
  }
}

log::LogSegment* DstChannel::Source::Next() {
  if (pos_ >= end_) return nullptr;
  if ((pos_ - begin_) % 4 == 3) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  if (visible_ && pos_ + 1 == end_ && pos_ > begin_) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (visible_() < delivered_max_ &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  log::LogSegment* seg = (*delivered_)[pos_++];
  if (!seg->empty()) {
    delivered_max_ = std::max(delivered_max_, seg->MaxTimestamp());
  }
  return seg;
}

void DstChannel::Source::Release(std::uint64_t end_seq) {
  // The contract's freeing rule: delivery order, stopping at the first
  // non-empty segment that ends above end_seq.
  while (released_ < pos_) {
    const log::LogSegment& seg = *(*delivered_)[released_];
    if (!seg.empty() && seg.base_seq() + seg.size() > end_seq) break;
    SetRecordsPoisoned(seg, true);
    ++released_;
  }
}

DstChannel::~DstChannel() {
  for (const log::LogSegment* seg : delivered_) {
    SetRecordsPoisoned(*seg, false);
  }
}

DstChannel::DstChannel(const log::Log* log, std::size_t first_seg,
                       std::size_t end_seg, const DstPlan& plan,
                       std::uint64_t salt, int drop_txn_segment) {
  Rng rng(plan.seed ^ (salt * 0x9E3779B97F4A7C15ull) ^ 0xD57'0000'0002ull);
  end_seg = std::min(end_seg, log->NumSegments());
  if (first_seg >= end_seg) return;

  // ---- Encode pristine frames, applying the planted-drop hook. ----------
  // With the hook active, base_seq is renumbered so the missing records
  // leave no positional gap: the stream stays structurally valid and only
  // the state oracles can notice the lost transaction.
  std::size_t drop_at = end_seg;  // disabled
  if (drop_txn_segment >= 0) {
    drop_at = std::min(static_cast<std::size_t>(drop_txn_segment),
                       end_seg - 1);
    drop_at = std::max(drop_at, first_seg);
  }
  std::vector<std::string> pristine;
  std::map<std::uint64_t, std::size_t> size_by_base;  // shipped base -> size
  pristine.reserve(end_seg - first_seg);
  std::uint64_t next_base = log->segment(first_seg)->base_seq();
  const std::uint64_t stream_base = next_base;
  for (std::size_t i = first_seg; i < end_seg; ++i) {
    const log::LogSegment* src = log->segment(i);
    log::LogSegment copy(next_base);
    Timestamp dropped_ts = kInvalidTimestamp;
    if (i == drop_at && !src->empty()) {
      dropped_ts = src->records().back().commit_ts;
    }
    for (const log::LogRecord& rec : src->records()) {
      if (rec.commit_ts == dropped_ts && dropped_ts != kInvalidTimestamp) {
        ++dropped_records_;
        continue;
      }
      log::LogRecord r = rec;
      r.prev_ts = kInvalidTimestamp;
      copy.Append(std::move(r));
    }
    if (copy.empty()) continue;  // hook ate a single-transaction segment
    std::string bytes;
    log::EncodeSegment(copy, &bytes);
    size_by_base[copy.base_seq()] = copy.size();
    next_base += copy.size();
    pristine.push_back(std::move(bytes));
  }
  const std::uint64_t stream_end = next_base;

  // ---- Generate the shipped datagram stream. ----------------------------
  std::vector<Frame> stream;
  stream.reserve(pristine.size() * 2);
  struct Displaced {
    std::size_t insert_after;
    Frame frame;
  };
  std::vector<Displaced> displaced;
  auto displace = [&](Frame f) {
    const std::size_t at =
        stream.size() + 1 +
        rng.Uniform(static_cast<std::uint64_t>(plan.displace_window));
    displaced.push_back({at, std::move(f)});
  };
  for (std::size_t k = 0; k < pristine.size(); ++k) {
    const double u = rng.NextDouble();
    FaultKind kind = FaultKind::kNone;
    double acc = plan.p_corrupt;
    if (u < acc) {
      kind = FaultKind::kCorrupt;
    } else if (u < (acc += plan.p_truncate)) {
      kind = FaultKind::kTruncate;
    } else if (u < (acc += plan.p_duplicate)) {
      kind = FaultKind::kDuplicate;
    } else if (u < (acc += plan.p_delay)) {
      kind = FaultKind::kDelay;
    }
    Mix(static_cast<std::uint64_t>(kind) * 131 + k);
    switch (kind) {
      case FaultKind::kCorrupt: {
        // Flip exactly one payload byte: a <=8-bit burst, which CRC32C
        // always detects, so decode is guaranteed to reject. (Header bytes
        // outside the CRC — base_seq — must stay clean or the "corruption"
        // would decode as a valid frame for the wrong position.)
        std::string bad = pristine[k];
        const std::size_t off =
            log::kSegmentHeaderBytes +
            rng.Uniform(bad.size() - log::kSegmentHeaderBytes);
        bad[off] = static_cast<char>(
            bad[off] ^ static_cast<char>(1 + rng.Uniform(255)));
        stream.push_back({std::move(bad), k});
        displace({pristine[k], k});
        ++stats_.frames_corrupted;
        break;
      }
      case FaultKind::kTruncate: {
        // Torn tail: ship a strict prefix of the frame.
        const std::size_t keep = rng.Uniform(pristine[k].size());
        stream.push_back({pristine[k].substr(0, keep), k});
        displace({pristine[k], k});
        ++stats_.frames_truncated;
        break;
      }
      case FaultKind::kDuplicate:
        stream.push_back({pristine[k], k});
        displace({pristine[k], k});
        ++stats_.frames_duplicated;
        break;
      case FaultKind::kDelay:
        displace({pristine[k], k});
        ++stats_.frames_delayed;
        break;
      case FaultKind::kNone:
        stream.push_back({pristine[k], k});
        break;
    }
  }
  for (auto& d : displaced) {
    const std::size_t at = std::min(d.insert_after, stream.size());
    stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at),
                  std::move(d.frame));
  }

  // ---- Receive: decode, NAK-retransmit, reassemble into log order. ------
  std::map<std::uint64_t, std::unique_ptr<log::LogSegment>> buffer;
  std::uint64_t expected = stream_base;
  auto deliver = [&](std::unique_ptr<log::LogSegment> seg, bool stale) {
    Mix(seg->base_seq() * 2654435761ull + seg->size() + (stale ? 1 : 0));
    delivered_.push_back(seg.get());
    owned_.push_back(std::move(seg));
    ++stats_.delivered_segments;
  };
  for (std::size_t e = 0; e < stream.size(); ++e) {
    ++stats_.frames_shipped;
    std::size_t consumed = 0;
    std::unique_ptr<log::LogSegment> seg;
    const Status st = log::DecodeSegment(stream[e].bytes, &consumed, &seg);
    if (!st.ok()) {
      // NAK: the sender re-ships the pristine frame a little later.
      ++stats_.frames_rejected;
      ++stats_.retransmits;
      Mix(0xBADull * 31 + e);
      const std::size_t at = std::min(
          e + 1 +
              rng.Uniform(static_cast<std::uint64_t>(plan.displace_window)),
          stream.size());
      stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at),
                    {pristine[stream[e].pristine], stream[e].pristine});
      continue;
    }
    const std::uint64_t b = seg->base_seq();
    const auto it = size_by_base.find(b);
    if (it == size_by_base.end() || seg->size() != it->second) {
      error_ = "decoded frame with alien base_seq/size";
      return;
    }
    if (b == expected) {
      expected += it->second;
      deliver(std::move(seg), /*stale=*/false);
      for (auto buf = buffer.find(expected); buf != buffer.end();
           buf = buffer.find(expected)) {
        expected += buf->second->size();
        deliver(std::move(buf->second), /*stale=*/false);
        buffer.erase(buf);
      }
    } else if (b > expected) {
      auto [pos, inserted] = buffer.try_emplace(b, std::move(seg));
      if (!inserted) ++stats_.stale_dups_dropped;  // dup already in flight
    } else {
      // Already delivered: an at-least-once redelivery. Sometimes hand it
      // to the replica anyway — idempotent apply must absorb it.
      if (rng.NextDouble() < plan.p_deliver_stale_dup) {
        deliver(std::move(seg), /*stale=*/true);
        ++stats_.stale_dups_delivered;
      } else {
        ++stats_.stale_dups_dropped;
      }
    }
  }
  if (!buffer.empty() || expected != stream_end) {
    error_ = "reassembly incomplete: a pristine frame was never delivered";
  }
}

}  // namespace c5::sim
