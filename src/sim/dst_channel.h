// Deterministic wire-level fault injection for log shipping.
//
// Faults live where they do in production: on the wire. The channel encodes
// each pristine segment to its wire frame (log/wire.h), perturbs the frame
// stream according to the seeded plan — byte corruption, torn tails,
// duplication, delay/reordering — and then plays the receiving side:
// frames that fail DecodeSegment (CRC mismatch, torn payload) are counted
// and NAK-retransmitted; decodable frames are reassembled into log order by
// base_seq, TCP-style. The replica therefore always sees a stream that
// satisfies its input contract (segments in log order, possibly with
// duplicates, which idempotent apply absorbs), while every fault path in
// wire.cc and every redelivery path in the protocols gets exercised.
//
// The whole delivery schedule is computed up front from the seed: no wall
// clock, no thread timing. Two channels built with the same (log, plan,
// salt) produce byte-identical schedules — `schedule_digest()` proves it.

#ifndef C5_SIM_DST_CHANNEL_H_
#define C5_SIM_DST_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "log/log_segment.h"
#include "log/segment_source.h"
#include "sim/dst_plan.h"

namespace c5::sim {

struct DstChannelStats {
  std::uint64_t frames_shipped = 0;      // total datagrams on the wire
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_truncated = 0;
  std::uint64_t frames_duplicated = 0;
  std::uint64_t frames_delayed = 0;
  std::uint64_t frames_rejected = 0;     // decode failures at the receiver
  std::uint64_t retransmits = 0;
  std::uint64_t stale_dups_delivered = 0;
  std::uint64_t stale_dups_dropped = 0;
  std::uint64_t delivered_segments = 0;
};

class DstChannel {
 public:
  // Builds the full delivered sequence for pristine segments
  // [first_seg, end_seg) of `log`. `salt` decorrelates channels that share a
  // plan (one channel per replica incarnation). If `drop_txn_segment` >= 0,
  // the channel silently removes the last transaction's records from that
  // segment (clamped to the last segment) and renumbers base_seq so the
  // gap is positionally invisible — a planted prefix violation only the
  // state oracles can catch. The source `log` must outlive the channel;
  // the channel must outlive every replica consuming its segments (lazy
  // protocols keep pointers into delivered segments).
  DstChannel(const log::Log* log, std::size_t first_seg, std::size_t end_seg,
             const DstPlan& plan, std::uint64_t salt,
             int drop_txn_segment = -1);

  ~DstChannel();

  DstChannel(const DstChannel&) = delete;
  DstChannel& operator=(const DstChannel&) = delete;

  // In-order (reassembled) delivery sequence; segments owned by the channel.
  const std::vector<log::LogSegment*>& delivered() const { return delivered_; }

  const DstChannelStats& stats() const { return stats_; }

  // FNV-1a over every generation and delivery event: equal digests mean the
  // two runs shipped, rejected, retransmitted, and delivered identically.
  std::uint64_t schedule_digest() const { return schedule_digest_; }

  // Records removed by the drop_txn_segment hook (0 without the hook).
  std::size_t dropped_records() const { return dropped_records_; }

  // Non-empty if reassembly could not complete (an internal channel bug;
  // surfaced as a harness violation rather than a crash).
  const std::string& error() const { return error_; }

  // A source over delivered()[begin, end). An `end` short of the full
  // sequence is the crash injector: the feed dies after `end` deliveries
  // and Next() reports end-of-log, exactly what a replica sees when its
  // primary (or its shipping channel) fails mid-replay.
  //
  // Release enforces the SegmentSource contract under ASan: it poisons the
  // record arrays of the released segments, so any later read of a
  // released record — a release the protocol made too early — is a
  // use-after-poison report. Building a source unpoisons its range (a later
  // incarnation legitimately re-reads segments an earlier one released).
  // Without ASan, Release only counts.
  //
  // Next() paces delivery like a network feed (a short sleep every few
  // segments), so the scheduler comes back for more after its workers have
  // moved the apply floor — the interleaving in which releases happen.
  class Source : public log::SegmentSource {
   public:
    Source(const std::vector<log::LogSegment*>* delivered, std::size_t begin,
           std::size_t end);

    // Holds back the range's last segment until `visible()` covers every
    // segment delivered before it (at most 10 s). A replica publishes its
    // apply floor before the visible timestamp it derives from it, so the
    // scheduler's next NextSegment releases those segments: every run that
    // delivers two segments or more releases, however fast the scheduler
    // pulls.
    void HoldLastUntilVisible(std::function<Timestamp()> visible) {
      visible_ = std::move(visible);
    }

    log::LogSegment* Next() override;
    void Release(std::uint64_t end_seq) override;

   private:
    const std::vector<log::LogSegment*>* delivered_;
    const std::size_t begin_;
    std::size_t pos_;
    const std::size_t end_;
    std::size_t released_;  // delivered()[begin_, released_) are released
    std::function<Timestamp()> visible_;  // empty: no hold
    Timestamp delivered_max_ = 0;  // max timestamp delivered so far
  };

  Source MakeSource() const {
    return Source(&delivered_, 0, delivered_.size());
  }
  Source MakeSource(std::size_t begin, std::size_t end) const {
    return Source(&delivered_, begin, end);
  }

 private:
  void Mix(std::uint64_t v) {
    schedule_digest_ ^= v;
    schedule_digest_ *= 0x100000001b3ull;
    schedule_digest_ ^= schedule_digest_ >> 29;
  }

  std::vector<std::unique_ptr<log::LogSegment>> owned_;
  std::vector<log::LogSegment*> delivered_;
  DstChannelStats stats_;
  std::uint64_t schedule_digest_ = 0xcbf29ce484222325ull;
  std::size_t dropped_records_ = 0;
  std::string error_;
};

}  // namespace c5::sim

#endif  // C5_SIM_DST_CHANNEL_H_
