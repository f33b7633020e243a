// ShipServer — the sending half of the socket transport: retains the
// shard group's shipped log as encoded wire frames and streams it to any
// number of remote subscribers, honoring the ship_protocol.h vocabulary
// (subscribe-from-seq, NAK-driven retransmit with resync markers,
// end-of-log).
//
// Feed modes:
//  * ServeChannel(source): a drainer thread consumes one subscriber lane of
//    an OnlineLogCollector and publishes each sealed segment as it ships,
//    releasing it back to the lane once encoded — the live-cluster mode
//    (Cluster wires this when ClusterOptions names a listen port or a
//    via_socket backup).
//  * PublishLog(log) + FinishLog(): serve a prebuilt log — the c5-server
//    seeded mode and the offline-replay benches.
//
// Retention is ack-driven (ship_protocol.h): published frames are shared,
// immutable bytes in a deque addressed by absolute frame number. Every
// frame wholly below the minimum ack of the connected, subscribed clients
// is freed; while no such client exists nothing is freed, so a subscriber
// that attaches before any other, or reconnects after a drop, finds its
// resume point. A subscribe or NAK below the freed floor is answered with
// a behind-retention frame. A connected subscriber that never acks (an
// older client) pins everything from its subscribe point on.
//
// Threading: one accept thread; per client one receiver thread (requests
// are pipelined — a NAK is acted on while segments are in flight) and one
// sender thread (streams from the archive cursor, rewinding on NAK). All
// shared state sits behind one mutex + condvar; sends happen outside it,
// over a reference to the shared frame (no copy under the mutex).

#ifndef C5_NET_SHIP_SERVER_H_
#define C5_NET_SHIP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "log/log_segment.h"
#include "log/segment_source.h"
#include "net/ship_protocol.h"
#include "net/socket.h"

namespace c5::net {

// Per-client shipping counters (the "clientsstats" surface): snapshot via
// ShipServer::ClientStatsSnapshot, printed by c5-server on disconnect.
struct ClientShipStats {
  std::uint64_t client_id = 0;
  bool connected = false;
  std::uint64_t subscribed_from = 0;     // last subscribe's record seq
  std::uint64_t segments_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t naks_received = 0;
  std::uint64_t retransmit_segments = 0; // segments re-sent due to NAK
  std::uint64_t resyncs_sent = 0;
  std::uint64_t acked_seq = 0;           // highest ack (or subscribe) seq
  std::uint64_t behind_sent = 0;         // behind-retention answers
};

class ShipServer {
 public:
  struct Options {
    std::uint16_t port = 0;  // 0: kernel-assigned ephemeral (see port())

    // Deterministic test fault hooks; each fires at most ONCE per server so
    // the protocol's recovery paths can be driven without flaking:
    //  * corrupt_frame: flip one payload byte of the Nth segment frame sent
    //    (counted across the first client's stream) — drives the receiver's
    //    NAK + resync + retransmit path end to end.
    //  * drop_after_frames: hard-close the first accepted connection after
    //    its Nth sent frame — drives reconnect + resume-from-seq.
    int corrupt_frame = -1;
    int drop_after_frames = -1;

    // Throttle between sent frames (kill/restart tests pace the stream so
    // "mid-stream" is a real window, not a race).
    std::chrono::milliseconds send_delay{0};
  };

  ShipServer() : ShipServer(Options()) {}
  explicit ShipServer(Options options);
  ~ShipServer();

  ShipServer(const ShipServer&) = delete;
  ShipServer& operator=(const ShipServer&) = delete;

  // Binds, listens, spawns the accept loop.
  Status Start();

  std::uint16_t port() const { return listener_.port(); }

  // ---- Feed ----
  void PublishSegment(const log::LogSegment& segment);
  void PublishLog(const log::Log& log);
  // No more segments will ever be published: subscribers that drain the
  // archive receive the end-of-log frame and terminate their replay.
  void FinishLog();
  // Spawns a drainer over `source` (a collector lane,
  // OnlineLogCollector::MakeSource): each segment is published, then
  // released back to the lane; end-of-source finishes the log. `source`
  // must outlive Stop().
  void ServeChannel(log::SegmentSource* source);

  // ---- Stats ----
  std::vector<ClientShipStats> ClientStatsSnapshot() const;
  // Frames ever published (retained or freed).
  std::uint64_t frames_published() const;
  // Frames and encoded bytes still retained.
  std::uint64_t retained_frames() const;
  std::uint64_t retained_bytes() const;
  // Seq below which frames were freed (0: nothing freed yet).
  std::uint64_t retained_from_seq() const;
  // End-of-archive record seq (base + size of the last published frame).
  std::uint64_t end_seq() const;

  // Shuts the listener, closes every client, joins all threads. Idempotent;
  // the destructor calls it.
  void Stop();

 private:
  struct Frame {
    std::shared_ptr<const std::string> bytes;  // immutable once published
    std::uint64_t base = 0;
    std::uint64_t count = 0;
  };

  // All mutable Client fields (stats, subscribed, closing, cursor,
  // high_cursor, rewound, end_sent, behind) are guarded by the server's mu_; the
  // analysis cannot express a nested struct guarded by an outer instance's
  // capability, so the discipline is enforced by the lock-rank checker and
  // review. Exception: conn.ShutdownBoth() is called under mu_ to unblock
  // the tx thread's WriteAll, which runs OUTSIDE mu_ by design (socket
  // shutdown is async-signal-like: safe against concurrent send/recv).
  struct Client {
    std::uint64_t id = 0;
    TcpConn conn;
    ClientShipStats stats;
    bool subscribed = false;
    bool closing = false;
    // Absolute frame numbers (frame 0 is the first ever published).
    std::uint64_t cursor = 0;       // next frame to send
    std::uint64_t high_cursor = 0;  // one past the furthest frame ever sent
    bool rewound = false;         // a NAK moved the cursor; send resync first
    bool end_sent = false;
    bool behind = false;  // asked below the freed floor; answer, then idle
    std::thread rx;
    std::thread tx;
  };

  void AcceptLoop();
  void ClientRxLoop(Client* c);
  void ClientTxLoop(Client* c);
  // Absolute frame number for record seq: the retained frame containing
  // it, else the first retained frame above it (one past the archive when
  // seq is past the tail: wait for more).
  std::uint64_t FrameIndexFor(std::uint64_t seq) const C5_REQUIRES(mu_);
  // Applies a subscribe / NAK / ack from `c`.
  void HandleRequest(Client* c, const Request& req) C5_REQUIRES(mu_);
  // Frees every frame wholly below the minimum ack of the connected,
  // subscribed clients into *dead (destroyed by the caller, unlocked).
  void TrimLocked(std::vector<Frame>* dead) C5_REQUIRES(mu_);
  std::uint64_t frame_end() const C5_REQUIRES(mu_) {
    return first_frame_ + archive_.size();
  }

  Options options_;
  TcpListener listener_;
  std::thread accept_thread_;
  std::thread drain_thread_;

  mutable Mutex mu_{LockRank::kQueue};
  CondVar cv_;
  std::deque<Frame> archive_ C5_GUARDED_BY(mu_);
  std::uint64_t first_frame_ C5_GUARDED_BY(mu_) = 0;  // archive_.front()'s number
  std::uint64_t trimmed_seq_ C5_GUARDED_BY(mu_) = 0;  // freed below this seq
  std::uint64_t retained_bytes_ C5_GUARDED_BY(mu_) = 0;
  std::uint64_t end_seq_ C5_GUARDED_BY(mu_) = 0;
  bool finished_ C5_GUARDED_BY(mu_) = false;
  bool stopping_ C5_GUARDED_BY(mu_) = false;
  std::vector<std::unique_ptr<Client>> clients_ C5_GUARDED_BY(mu_);
  std::uint64_t next_client_id_ C5_GUARDED_BY(mu_) = 0;

  // One-shot fault-hook arming (first stream only; see Options).
  std::atomic<bool> corrupt_armed_{false};
  std::atomic<bool> drop_armed_{false};
};

}  // namespace c5::net

#endif  // C5_NET_SHIP_SERVER_H_
