// SocketSegmentSource — the receiving half of the socket transport: a
// log::SegmentSource that subscribes to a ShipServer over real TCP and
// reassembles the byte stream back into log-order segments. A backup fed
// by one replays through the exact same scheduler/replica code path as a
// ChannelSegmentSource-fed backup — the transport is invisible above
// Next().
//
// Fault handling mirrors the DST channel's receive loop (sim/dst_channel.cc
// is the executable spec):
//   * a frame that fails to decode (CRC, structure) triggers a NAK for the
//     receiver's expected seq, then a byte-scan for the server's resync
//     marker — everything before it is garbage by definition;
//   * frames arriving out of order (retransmission races) are buffered by
//     base_seq and drained once the gap fills; duplicates are dropped,
//     fully-stale frames skipped, partially-overlapping frames delivered
//     (idempotent apply absorbs the overlap);
//   * a dropped connection reconnects with capped exponential backoff and
//     re-subscribes from the expected seq — at-least-once delivery, with
//     the overlap rules above absorbing whatever the server re-sends.
//
// Threading: Next() does all socket work inline on the caller (the
// backup's scheduler thread) — there is no pump thread. Cancel() may be
// called from any thread; it wakes a blocked Next() (via socket shutdown)
// and makes it return nullptr. Stats counters are atomics readable from
// any thread while the replay runs (the crash-recovery test polls
// segments_delivered to time its SIGKILL mid-stream).
//
// Ownership: delivered segments are owned by the source until the replica
// releases them (log::SegmentSource::Release); each release is acked to the
// server at the start of the next Next() call (one coalesced kAck), so the
// server can free its frames too. A server that already freed the records
// a subscribe or NAK asks for answers behind-retention: Next() returns
// nullptr and error() says so.

#ifndef C5_NET_SOCKET_SEGMENT_SOURCE_H_
#define C5_NET_SOCKET_SEGMENT_SOURCE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/mutex.h"
#include "common/status.h"
#include "log/segment_source.h"
#include "log/wire.h"
#include "net/ship_protocol.h"
#include "net/socket.h"

namespace c5::net {

class SocketSegmentSource : public log::SegmentSource {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;

    // Re-resolved before EVERY connect attempt when set (host/port are
    // ignored then). The crash-recovery test uses this: a restarted
    // c5-server binds a fresh ephemeral port, so the endpoint must be
    // re-read, not remembered.
    std::function<std::pair<std::string, std::uint16_t>()> resolve;

    // Reconnect backoff: initial delay, doubling per consecutive failure,
    // capped. Resets on a successful connect.
    std::chrono::milliseconds backoff_initial{10};
    std::chrono::milliseconds backoff_max{1000};

    // First record seq to subscribe from (resume point after a restart).
    std::uint64_t start_seq = 0;

    // Give up after this many consecutive failed connects (0 = retry
    // forever, until Cancel). On giving up Next() returns nullptr and
    // error() explains.
    int max_connect_attempts = 0;
  };

  struct Stats {
    std::atomic<std::uint64_t> connects{0};
    std::atomic<std::uint64_t> reconnects{0};
    std::atomic<std::uint64_t> naks_sent{0};
    std::atomic<std::uint64_t> resyncs_seen{0};
    std::atomic<std::uint64_t> segments_delivered{0};
    std::atomic<std::uint64_t> stale_skipped{0};
    std::atomic<std::uint64_t> decode_rejects{0};
    std::atomic<std::uint64_t> bytes_received{0};
    std::atomic<std::uint64_t> acks_sent{0};
  };

  explicit SocketSegmentSource(Options options);
  ~SocketSegmentSource() override;

  SocketSegmentSource(const SocketSegmentSource&) = delete;
  SocketSegmentSource& operator=(const SocketSegmentSource&) = delete;

  // Blocks for the next in-order segment; nullptr at end-of-log, on
  // Cancel(), once max_connect_attempts is exhausted, or when the server no
  // longer retains the records this source needs.
  log::LogSegment* Next() override;

  // Frees the delivered segments wholly below end_seq; the next Next()
  // acks end_seq to the server.
  void Release(std::uint64_t end_seq) override;

  // Delivered segments not yet released.
  std::size_t retained_segments() const { return owned_.size(); }

  // Wakes a blocked Next() and makes it (and every later call) return
  // nullptr. Callable from any thread; idempotent.
  void Cancel();

  const Stats& stats() const { return stats_; }
  // Non-empty after Next() returned nullptr for a reason other than a
  // clean end-of-log.
  const std::string& error() const { return error_; }
  // Next record seq the source still needs (its replay resume point).
  std::uint64_t expected_seq() const {
    return expected_.load(std::memory_order_acquire);
  }

 private:
  // All of these run on the scheduler thread (the only caller of Next).
  bool EnsureConnected();        // false: cancelled or attempts exhausted
  void Disconnect();             // close + reset per-connection state
  void ProcessBuffered();        // drain reasm_ into ready_
  void HandleSegment(std::unique_ptr<log::LogSegment> seg);
  void Deliver(std::unique_ptr<log::LogSegment> seg);
  bool SendNak();                // false: connection is broken
  bool SendAckIfDue();           // false: connection is broken
  bool SendRequest(RequestType type, std::uint64_t arg);
  bool BackoffSleep(std::chrono::milliseconds d);  // false: cancelled

  const Options options_;
  Stats stats_;
  std::string error_;

  // conn_ is read/written by the scheduler thread; Cancel() pokes it from
  // outside. mu_ serializes open/close/shutdown — never held across a
  // blocking read or write. (conn_ itself is not GUARDED_BY: ReadSome /
  // WriteAll run outside the lock by design; only open/close/shutdown
  // transitions are serialized.)
  Mutex mu_{LockRank::kQueue};
  TcpConn conn_;
  bool connected_ = false;
  std::atomic<bool> cancelled_{false};

  log::FrameReassembler reasm_;
  bool scanning_ = false;  // post-NAK: discarding bytes until resync marker

  std::atomic<std::uint64_t> expected_{0};
  std::map<std::uint64_t, std::unique_ptr<log::LogSegment>> reorder_;
  std::deque<log::LogSegment*> ready_;
  // Delivered, unreleased segments in delivery (= seq) order.
  std::deque<std::unique_ptr<log::LogSegment>> owned_;
  std::uint64_t released_seq_ = 0;  // highest Release() argument
  std::uint64_t acked_seq_ = 0;     // highest seq acked to the server

  bool finished_ = false;        // END control received
  std::uint64_t final_seq_ = 0;  // valid once finished_
  bool behind_ = false;          // server answered behind-retention
};

}  // namespace c5::net

#endif  // C5_NET_SOCKET_SEGMENT_SOURCE_H_
