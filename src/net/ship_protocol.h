// The binary shipping RPC: how log segments cross a real socket.
//
// The stream payload IS the existing log/wire.h segment framing — a backup
// replaying from TCP decodes the exact bytes an archived log or the DST
// channel carries, through the same DecodeSegment. Around it, two tiny
// control vocabularies:
//
//   client -> server (requests; fixed 13 bytes, pipelined — the client
//   never waits for a response before sending the next):
//     u32 magic  'C5RQ'
//     u8  type   kSubscribe | kNak | kAck
//     u64 arg    kSubscribe: first record seq wanted (resume point)
//                kNak:       receiver's expected seq; retransmit from there
//                kAck:       the receiver will never ask for a record below
//                            this seq again (its replica released them)
//
//   server -> client (interleaved with segment frames; 16 bytes):
//     u32 magic  'C5RM' (resync) | 'C5EN' (end-of-log) |
//                'C5BH' (behind retention)
//     u64 seq    resync: the seq retransmission restarts at
//                end:    the final seq (total records shipped)
//                behind: the oldest seq the server still retains
//     u32 crc    CRC32C over the 8 seq bytes — a receiver scanning a
//                corrupted stream byte-by-byte for the resync marker must
//                not sync on payload bytes that merely look like a magic
//
// Retransmit protocol: a receiver that hits an undecodable frame sends
// kNak{expected} and scans forward for the resync marker; the server
// rewinds its cursor to the frame containing `expected` and emits
// resync(seq) followed by the retransmission. Frames decoded out of order
// while the NAK was in flight are reassembled by base_seq, exactly like
// the DST channel's receive loop — at-least-once delivery with idempotent
// apply absorbing overlaps.
//
// Reconnect protocol: a receiver whose connection drops reconnects (with
// exponential backoff) and re-subscribes from its expected seq; the server
// treats every subscription as a fresh cursor into its retained archive.
// Subscribing past the retained tail is answered from the closest retained
// frame at or below the requested seq (idempotent apply absorbs overlap).
//
// Retention protocol: a receiver acks the seq below which its replica has
// released every record (at most one coalesced kAck per Next()). The
// server frees every frame wholly below the minimum ack of its connected,
// subscribed clients — a subscription counts as an ack of its start seq —
// and frees nothing while no such client exists. A subscribe or NAK below
// the freed floor is answered with a behind-retention frame, never with a
// silent gap; the receiver then fails with error() set.

#ifndef C5_NET_SHIP_PROTOCOL_H_
#define C5_NET_SHIP_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/crc32c.h"

namespace c5::net {

inline constexpr std::uint32_t kRequestMagic = 0x51523543u;  // "C5RQ"
inline constexpr std::uint32_t kResyncMagic = 0x4D523543u;   // "C5RM"
inline constexpr std::uint32_t kEndMagic = 0x4E453543u;      // "C5EN"
inline constexpr std::uint32_t kBehindMagic = 0x48423543u;   // "C5BH"

enum class RequestType : std::uint8_t {
  kSubscribe = 1,
  kNak = 2,
  kAck = 3,
};

inline constexpr std::size_t kRequestBytes =
    sizeof(std::uint32_t) + sizeof(std::uint8_t) + sizeof(std::uint64_t);
inline constexpr std::size_t kControlBytes =
    sizeof(std::uint32_t) + sizeof(std::uint64_t) + sizeof(std::uint32_t);

struct Request {
  RequestType type = RequestType::kSubscribe;
  std::uint64_t arg = 0;
};

// Appends the wire form to *out.
void EncodeRequest(const Request& req, std::string* out);
void EncodeControl(std::uint32_t magic, std::uint64_t seq, std::string* out);

// Decodes one request off the front of `bytes`. Returns false when fewer
// than kRequestBytes are buffered OR the frame is malformed (bad magic /
// unknown type — the server drops such clients; requests ride a trusted
// ordered stream, so a malformed request means a broken peer).
// `*malformed` distinguishes the two.
bool DecodeRequest(std::string_view bytes, Request* out, bool* malformed);

// Checks whether `bytes` starts with a valid control frame of `magic`
// (CRC-verified). Returns true and sets *seq on success; false when torn
// or the CRC refutes it.
bool DecodeControl(std::string_view bytes, std::uint32_t magic,
                   std::uint64_t* seq);

// Reads the leading u32 of `bytes` (0 when fewer than 4 bytes buffered —
// a value no frame magic uses).
std::uint32_t PeekMagic(std::string_view bytes);

inline std::uint32_t ControlCrc(std::uint64_t seq) {
  char b[sizeof(seq)];
  __builtin_memcpy(b, &seq, sizeof(seq));
  return Crc32c(b, sizeof(b));
}

}  // namespace c5::net

#endif  // C5_NET_SHIP_PROTOCOL_H_
