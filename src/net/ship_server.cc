#include "net/ship_server.h"

#include <algorithm>

#include "log/wire.h"
#include "net/ship_protocol.h"

namespace c5::net {

ShipServer::ShipServer(Options options) : options_(std::move(options)) {
  corrupt_armed_.store(options_.corrupt_frame >= 0,
                       std::memory_order_relaxed);
  drop_armed_.store(options_.drop_after_frames >= 0,
                    std::memory_order_relaxed);
}

ShipServer::~ShipServer() { Stop(); }

Status ShipServer::Start() {
  const Status s = listener_.Listen(options_.port);
  if (!s.ok()) return s;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void ShipServer::PublishSegment(const log::LogSegment& segment) {
  if (segment.empty()) return;
  auto bytes = std::make_shared<std::string>();
  log::EncodeSegment(segment, bytes.get());
  {
    MutexLock lock(mu_);
    retained_bytes_ += bytes->size();
    archive_.push_back(Frame{std::move(bytes), segment.base_seq(),
                             segment.size()});
    end_seq_ = segment.base_seq() + segment.size();
  }
  cv_.NotifyAll();
}

void ShipServer::PublishLog(const log::Log& log) {
  for (std::size_t i = 0; i < log.NumSegments(); ++i) {
    PublishSegment(*log.segment(i));
  }
}

void ShipServer::FinishLog() {
  {
    MutexLock lock(mu_);
    finished_ = true;
  }
  cv_.NotifyAll();
}

void ShipServer::ServeChannel(log::SegmentSource* source) {
  drain_thread_ = std::thread([this, source] {
    while (log::LogSegment* seg = source->Next()) {
      PublishSegment(*seg);
      // The frame holds its own encoded bytes: the lane may free the
      // segment at once.
      source->Release(seg->base_seq() + seg->size());
    }
    FinishLog();
  });
}

std::vector<ClientShipStats> ShipServer::ClientStatsSnapshot() const {
  MutexLock lock(mu_);
  std::vector<ClientShipStats> out;
  out.reserve(clients_.size());
  for (const auto& c : clients_) out.push_back(c->stats);
  return out;
}

std::uint64_t ShipServer::frames_published() const {
  MutexLock lock(mu_);
  return frame_end();
}

std::uint64_t ShipServer::retained_frames() const {
  MutexLock lock(mu_);
  return archive_.size();
}

std::uint64_t ShipServer::retained_bytes() const {
  MutexLock lock(mu_);
  return retained_bytes_;
}

std::uint64_t ShipServer::retained_from_seq() const {
  MutexLock lock(mu_);
  return trimmed_seq_;
}

std::uint64_t ShipServer::end_seq() const {
  MutexLock lock(mu_);
  return end_seq_;
}

void ShipServer::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (auto& c : clients_) {
      c->closing = true;
      c->conn.ShutdownBoth();
    }
  }
  cv_.NotifyAll();
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (drain_thread_.joinable()) drain_thread_.join();
  std::vector<std::unique_ptr<Client>> clients;
  {
    MutexLock lock(mu_);
    clients.swap(clients_);
  }
  for (auto& c : clients) {
    if (c->rx.joinable()) c->rx.join();
    if (c->tx.joinable()) c->tx.join();
  }
}

void ShipServer::AcceptLoop() {
  for (;;) {
    TcpConn conn;
    const Status s = listener_.Accept(&conn);
    if (!s.ok()) return;  // shutdown
    MutexLock lock(mu_);
    if (stopping_) return;
    auto client = std::make_unique<Client>();
    client->id = next_client_id_++;
    client->stats.client_id = client->id;
    client->stats.connected = true;
    client->conn = std::move(conn);
    Client* c = client.get();
    clients_.push_back(std::move(client));
    c->rx = std::thread([this, c] { ClientRxLoop(c); });
    c->tx = std::thread([this, c] { ClientTxLoop(c); });
  }
}

std::uint64_t ShipServer::FrameIndexFor(std::uint64_t seq) const {
  // Frames are appended in base order; find the last frame with base <= seq
  // (requests past the archive land one-past-the-end: wait for more).
  std::size_t lo = 0, hi = archive_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (archive_[mid].base <= seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // lo = first frame with base > seq.
  if (lo == 0) return first_frame_;
  const Frame& f = archive_[lo - 1];
  return first_frame_ + ((seq >= f.base + f.count) ? lo : lo - 1);
}

void ShipServer::HandleRequest(Client* c, const Request& req) {
  if (req.type == RequestType::kAck) {
    c->stats.acked_seq = std::max(c->stats.acked_seq, req.arg);
    return;
  }
  c->stats.subscribed_from = req.arg;
  c->end_sent = false;
  if (req.arg < trimmed_seq_) {
    // The records asked for are gone: say so instead of skipping them.
    c->behind = true;
    c->subscribed = false;
    return;
  }
  c->cursor = FrameIndexFor(req.arg);
  if (req.type == RequestType::kSubscribe) {
    c->subscribed = true;
    // Subscribing from a seq acks everything below it.
    c->stats.acked_seq = req.arg;
  } else {
    ++c->stats.naks_received;
    c->rewound = true;  // emit a resync marker before retransmitting
  }
}

void ShipServer::TrimLocked(std::vector<Frame>* dead) {
  std::uint64_t floor = 0;
  bool any = false;
  for (const auto& c : clients_) {
    if (!c->subscribed || c->closing) continue;
    floor = any ? std::min(floor, c->stats.acked_seq) : c->stats.acked_seq;
    any = true;
  }
  if (!any) return;  // nobody to ask for a resume point: keep everything
  while (!archive_.empty() &&
         archive_.front().base + archive_.front().count <= floor) {
    Frame& f = archive_.front();
    trimmed_seq_ = f.base + f.count;
    retained_bytes_ -= f.bytes->size();
    dead->push_back(std::move(f));
    archive_.pop_front();
    ++first_frame_;
  }
}

void ShipServer::ClientRxLoop(Client* c) {
  std::string buf;
  char chunk[4096];
  std::vector<Frame> dead;
  for (;;) {
    std::size_t n = 0;
    const Status s = c->conn.ReadSome(chunk, sizeof(chunk), &n);
    if (!s.ok() || n == 0) break;  // peer gone (or Stop shut us down)
    buf.append(chunk, n);
    std::size_t off = 0;
    bool broken = false;
    bool wake_sender = false;  // acks alone give the tx thread nothing to do
    {
      MutexLock lock(mu_);
      for (;;) {
        Request req;
        bool malformed = false;
        if (!DecodeRequest(std::string_view(buf).substr(off), &req,
                           &malformed)) {
          broken = malformed;  // torn request: wait for the rest
          break;
        }
        off += kRequestBytes;
        HandleRequest(c, req);
        wake_sender |= req.type != RequestType::kAck;
      }
      TrimLocked(&dead);
    }
    if (wake_sender) cv_.NotifyAll();
    dead.clear();  // frees trimmed frames outside mu_
    buf.erase(0, off);
    if (broken) break;  // a malformed request means a broken peer: drop it
  }
  {
    MutexLock lock(mu_);
    c->closing = true;
    c->stats.connected = false;
    c->conn.ShutdownBoth();  // unblock the tx thread mid-send
  }
  cv_.NotifyAll();
}

void ShipServer::ClientTxLoop(Client* c) {
  std::uint64_t frames_sent_on_conn = 0;
  for (;;) {
    // Either a control frame encoded here or a shared archive frame; both
    // are written outside mu_.
    std::string control;
    std::shared_ptr<const std::string> frame;
    bool is_retransmit = false;
    std::uint64_t segment_count = 0;
    {
      MutexLock lock(mu_);
      // Explicit loop (not a predicate lambda): the thread-safety analysis
      // must see the guarded reads performed while mu_ is held.
      while (!(c->closing || stopping_ || c->behind ||
               (c->subscribed &&
                (c->rewound || c->cursor < frame_end() ||
                 (finished_ && !c->end_sent))))) {
        cv_.Wait(lock);
      }
      if (c->closing || stopping_) break;
      if (c->behind || c->cursor < first_frame_) {
        // Asked (or rewound) below the freed floor: the stream cannot
        // continue from there. Answer once, then idle until a new request.
        EncodeControl(kBehindMagic, trimmed_seq_, &control);
        c->behind = false;
        c->subscribed = false;
        ++c->stats.behind_sent;
      } else if (c->rewound) {
        // NAK recovery: mark the stream position, then retransmit.
        const std::uint64_t seq =
            c->cursor < frame_end()
                ? archive_[c->cursor - first_frame_].base
                : end_seq_;
        EncodeControl(kResyncMagic, seq, &control);
        c->rewound = false;
        ++c->stats.resyncs_sent;
      } else if (c->cursor < frame_end()) {
        frame = archive_[c->cursor - first_frame_].bytes;
        segment_count = 1;
        // A frame below this stream's high-water mark is a retransmission
        // (a NAK — or a re-subscribe after reconnect — rewound the cursor).
        is_retransmit = c->cursor < c->high_cursor;
        c->high_cursor = std::max(c->high_cursor, c->cursor + 1);
        ++c->cursor;
      } else {
        // Archive drained and finished: tell the client the log ended.
        EncodeControl(kEndMagic, end_seq_, &control);
        c->end_sent = true;
      }
      c->stats.segments_sent += segment_count;
      if (is_retransmit) c->stats.retransmit_segments += segment_count;
      c->stats.bytes_sent += frame ? frame->size() : control.size();
    }
    std::string_view to_send = frame ? std::string_view(*frame) : control;

    // Fault hooks (armed once per server; see Options).
    if (segment_count > 0) {
      ++frames_sent_on_conn;
      if (options_.corrupt_frame >= 0 &&
          frames_sent_on_conn ==
              static_cast<std::uint64_t>(options_.corrupt_frame) + 1 &&
          corrupt_armed_.exchange(false, std::memory_order_relaxed) &&
          to_send.size() > log::kSegmentHeaderBytes) {
        // The archived frame is shared and immutable: corrupt a copy.
        control.assign(to_send);
        control[log::kSegmentHeaderBytes] =
            static_cast<char>(control[log::kSegmentHeaderBytes] ^ 0x5A);
        to_send = control;
      }
    }
    if (options_.send_delay.count() > 0 && segment_count > 0) {
      std::this_thread::sleep_for(options_.send_delay);
    }

    if (!c->conn.WriteAll(to_send.data(), to_send.size()).ok()) {
      MutexLock lock(mu_);
      c->closing = true;
      c->stats.connected = false;
      // Unblock our rx thread promptly: a failed send usually means the
      // peer is gone, but its FIN can be arbitrarily delayed and the rx
      // thread would otherwise sit in ReadSome until Stop().
      c->conn.ShutdownBoth();
      cv_.NotifyAll();
      continue;  // loop re-checks closing and exits
    }

    if (segment_count > 0 && options_.drop_after_frames >= 0 &&
        frames_sent_on_conn ==
            static_cast<std::uint64_t>(options_.drop_after_frames) &&
        drop_armed_.exchange(false, std::memory_order_relaxed)) {
      // Simulated transport failure: hard-close under the client's feet.
      MutexLock lock(mu_);
      c->conn.ShutdownBoth();
    }
  }
}

}  // namespace c5::net
