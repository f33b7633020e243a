#include "net/socket_segment_source.h"

#include <algorithm>
#include <thread>

#include "net/ship_protocol.h"

namespace c5::net {

SocketSegmentSource::SocketSegmentSource(Options options)
    : options_(std::move(options)) {
  expected_.store(options_.start_seq, std::memory_order_relaxed);
}

SocketSegmentSource::~SocketSegmentSource() { Cancel(); }

void SocketSegmentSource::Cancel() {
  cancelled_.store(true, std::memory_order_release);
  MutexLock lock(mu_);
  conn_.ShutdownBoth();  // wake a Next() blocked in ReadSome
}

log::LogSegment* SocketSegmentSource::Next() {
  if (connected_ && !SendAckIfDue()) Disconnect();
  for (;;) {
    if (!ready_.empty()) {
      log::LogSegment* seg = ready_.front();
      ready_.pop_front();
      return seg;
    }
    if (cancelled_.load(std::memory_order_acquire) || behind_) return nullptr;
    if (finished_ &&
        expected_.load(std::memory_order_relaxed) >= final_seq_) {
      return nullptr;  // clean end-of-log
    }
    if (!connected_ && !EnsureConnected()) return nullptr;

    char chunk[64 * 1024];
    std::size_t n = 0;
    const Status s = conn_.ReadSome(chunk, sizeof(chunk), &n);
    if (cancelled_.load(std::memory_order_acquire)) return nullptr;
    if (!s.ok() || n == 0) {
      Disconnect();  // peer gone (or mid-stream kill): reconnect + resume
      continue;
    }
    stats_.bytes_received.fetch_add(n, std::memory_order_relaxed);
    reasm_.Append(chunk, n);
    ProcessBuffered();
  }
}

bool SocketSegmentSource::EnsureConnected() {
  std::chrono::milliseconds delay = options_.backoff_initial;
  int failures = 0;
  for (;;) {
    if (cancelled_.load(std::memory_order_acquire)) return false;
    std::string host = options_.host;
    std::uint16_t port = options_.port;
    if (options_.resolve) {
      // Re-resolve every attempt: a restarted server lives on a new port.
      auto endpoint = options_.resolve();
      host = std::move(endpoint.first);
      port = endpoint.second;
    }
    TcpConn conn;
    Status s = Connect(host, port, &conn);
    if (s.ok()) {
      // (Re)subscribe from the resume point. At-least-once: the server may
      // rewind to the containing frame; overlap delivery absorbs it.
      std::string req;
      EncodeRequest(
          {RequestType::kSubscribe, expected_.load(std::memory_order_relaxed)},
          &req);
      s = conn.WriteAll(req.data(), req.size());
      if (s.ok()) {
        MutexLock lock(mu_);
        if (cancelled_.load(std::memory_order_acquire)) return false;
        conn_ = std::move(conn);
        connected_ = true;
        if (stats_.connects.fetch_add(1, std::memory_order_relaxed) > 0) {
          stats_.reconnects.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
      }
    }
    ++failures;
    if (options_.max_connect_attempts > 0 &&
        failures >= options_.max_connect_attempts) {
      error_ = "connect to " + host + ":" + std::to_string(port) +
               " failed after " + std::to_string(failures) +
               " attempts: " + s.ToString();
      return false;
    }
    if (!BackoffSleep(delay)) return false;
    delay = std::min(delay * 2, options_.backoff_max);
  }
}

void SocketSegmentSource::Disconnect() {
  {
    MutexLock lock(mu_);
    conn_.Close();
    connected_ = false;
  }
  // Bytes buffered from the dead connection are a torn mid-stream cut; the
  // re-subscription replays from expected_, so drop them wholesale.
  reasm_.Clear();
  scanning_ = false;
}

void SocketSegmentSource::Release(std::uint64_t end_seq) {
  released_seq_ = std::max(released_seq_, end_seq);
  while (!owned_.empty() &&
         owned_.front()->base_seq() + owned_.front()->size() <= end_seq) {
    owned_.pop_front();
  }
}

void SocketSegmentSource::ProcessBuffered() {
  const auto fail_behind = [this](std::uint64_t retained_from) {
    behind_ = true;
    error_ = "behind retention: the server keeps records from seq " +
             std::to_string(retained_from) + ", this source needs seq " +
             std::to_string(expected_.load(std::memory_order_relaxed));
  };
  for (;;) {
    if (scanning_) {
      // Post-NAK: everything before the server's answer — a resync
      // marker, or behind-retention when it no longer holds the records
      // asked for — is garbage.
      if (!reasm_.SkipToMagic({kResyncMagic, kBehindMagic})) {
        return;  // need more bytes
      }
      const std::string_view b = reasm_.Buffered();
      if (b.size() < kControlBytes) return;  // marker torn: need more
      const std::uint32_t magic = PeekMagic(b);
      std::uint64_t seq = 0;
      if (!DecodeControl(b, magic, &seq)) {
        // Payload bytes that merely look like the magic: the CRC refutes
        // them. Step one byte and keep scanning.
        reasm_.Consume(1);
        continue;
      }
      reasm_.Consume(kControlBytes);
      scanning_ = false;
      if (magic == kBehindMagic) {
        fail_behind(seq);
        return;
      }
      stats_.resyncs_seen.fetch_add(1, std::memory_order_relaxed);
      continue;
    }

    const std::string_view b = reasm_.Buffered();
    if (b.size() < sizeof(std::uint32_t)) return;
    const std::uint32_t magic = PeekMagic(b);

    if (magic == log::kSegmentMagic) {
      std::unique_ptr<log::LogSegment> seg;
      const Status s = reasm_.Poll(&seg);
      if (s.ok()) {
        HandleSegment(std::move(seg));
        continue;
      }
      if (s.code() == StatusCode::kNotFound) return;  // torn: need more
      // Definitive corruption (CRC / structure): NAK and scan for resync.
      stats_.decode_rejects.fetch_add(1, std::memory_order_relaxed);
      if (!SendNak()) {
        Disconnect();
        return;
      }
      scanning_ = true;
      continue;
    }

    if (magic == kResyncMagic || magic == kEndMagic ||
        magic == kBehindMagic) {
      if (b.size() < kControlBytes) return;  // torn: need more
      std::uint64_t seq = 0;
      if (!DecodeControl(b, magic, &seq)) {
        // A control magic with a refuted CRC is corruption like any other.
        stats_.decode_rejects.fetch_add(1, std::memory_order_relaxed);
        if (!SendNak()) {
          Disconnect();
          return;
        }
        scanning_ = true;
        reasm_.Consume(1);
        continue;
      }
      reasm_.Consume(kControlBytes);
      if (magic == kBehindMagic) {
        fail_behind(seq);
        return;
      }
      if (magic == kEndMagic) {
        finished_ = true;
        final_seq_ = seq;
        if (expected_.load(std::memory_order_relaxed) < final_seq_) {
          // END arrived over a gap (lost retransmission): ask again. The
          // server clears its end-sent latch on any request, so a fresh
          // END follows the retransmission.
          if (!SendNak()) {
            Disconnect();
            return;
          }
          scanning_ = true;
        }
      }
      // A resync marker outside scan mode is a harmless stream position
      // note (our NAK and its reply can cross on the wire).
      continue;
    }

    // Alien magic: the stream is off the rails. Same recovery as a corrupt
    // segment; SkipToMagic will discard up to the server's answer.
    stats_.decode_rejects.fetch_add(1, std::memory_order_relaxed);
    if (!SendNak()) {
      Disconnect();
      return;
    }
    scanning_ = true;
    reasm_.Consume(1);
  }
}

void SocketSegmentSource::HandleSegment(
    std::unique_ptr<log::LogSegment> seg) {
  const std::uint64_t base = seg->base_seq();
  const std::uint64_t count = seg->size();
  const std::uint64_t exp = expected_.load(std::memory_order_relaxed);
  if (base + count <= exp) {
    // Fully stale redelivery (NAK/reconnect overlap): already applied.
    stats_.stale_skipped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (base > exp) {
    // A gap is open (retransmission in flight): buffer by position.
    auto [it, inserted] = reorder_.try_emplace(base, std::move(seg));
    if (!inserted) {
      stats_.stale_skipped.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  // base <= exp < base+count: in order (possibly overlapping the applied
  // prefix after a rewind — idempotent apply absorbs the overlap).
  expected_.store(base + count, std::memory_order_release);
  Deliver(std::move(seg));
  // Drain whatever the gap was holding back.
  while (!reorder_.empty()) {
    auto it = reorder_.begin();
    const std::uint64_t b = it->first;
    const std::uint64_t c = it->second->size();
    const std::uint64_t e = expected_.load(std::memory_order_relaxed);
    if (b > e) break;
    std::unique_ptr<log::LogSegment> held = std::move(it->second);
    reorder_.erase(it);
    if (b + c <= e) {
      stats_.stale_skipped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    expected_.store(b + c, std::memory_order_release);
    Deliver(std::move(held));
  }
}

void SocketSegmentSource::Deliver(std::unique_ptr<log::LogSegment> seg) {
  ready_.push_back(seg.get());
  owned_.push_back(std::move(seg));
  stats_.segments_delivered.fetch_add(1, std::memory_order_relaxed);
}

bool SocketSegmentSource::SendRequest(RequestType type, std::uint64_t arg) {
  std::string req;  // kRequestBytes fit the small-string buffer
  EncodeRequest({type, arg}, &req);
  return conn_.WriteAll(req.data(), req.size()).ok();
}

bool SocketSegmentSource::SendNak() {
  if (!SendRequest(RequestType::kNak,
                   expected_.load(std::memory_order_relaxed))) {
    return false;
  }
  stats_.naks_sent.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool SocketSegmentSource::SendAckIfDue() {
  if (released_seq_ <= acked_seq_) return true;
  if (!SendRequest(RequestType::kAck, released_seq_)) return false;
  acked_seq_ = released_seq_;
  stats_.acks_sent.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool SocketSegmentSource::BackoffSleep(std::chrono::milliseconds d) {
  // Sleep in small slices so Cancel() is honored promptly.
  auto remaining = d;
  while (remaining.count() > 0) {
    if (cancelled_.load(std::memory_order_acquire)) return false;
    const auto slice = std::min(remaining, std::chrono::milliseconds(10));
    std::this_thread::sleep_for(slice);
    remaining -= slice;
  }
  return !cancelled_.load(std::memory_order_acquire);
}

}  // namespace c5::net
