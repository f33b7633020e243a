#ifndef C5_LOG_WIRE_H_
#define C5_LOG_WIRE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

#include "common/crc32c.h"
#include "common/status.h"
#include "log/log_segment.h"

namespace c5::log {

// Binary wire format for shipped/archived log segments. This is the
// at-rest and on-the-wire form of the §7.1 log; the in-memory LogSegment is
// what protocols consume. Layout (all integers little-endian):
//
//   segment frame:
//     u32 magic      'C5SG'
//     u64 base_seq
//     u32 record_count
//     u32 payload_len          (bytes of the records block)
//     u32 payload_crc32c
//     [payload: record_count records]
//
//   record:
//     u32 table
//     u8  op                   (OpType)
//     u8  last_in_txn
//     u64 row
//     u64 key
//     u64 commit_ts
//     u32 value_len
//     [value bytes]
//
// prev_timestamp is intentionally NOT serialized: it is dead space the
// primary leaves for the backup's scheduler (§7.1); decoders initialize it
// to kInvalidTimestamp and C5's scheduler recomputes it on every replay.
//
// CRC32C (common/crc32c.h) over the payload detects torn or corrupted
// frames; readers stop at the first bad frame, which is exactly
// write-ahead-log tail semantics.

inline constexpr std::uint32_t kSegmentMagic = 0x47355343u;  // "C5SG"

// Size of the segment frame header (everything before the payload). The
// CRC covers ONLY the payload; of the header, any corruption of magic,
// record_count, payload_len, or the CRC field itself is caught structurally,
// while base_seq is deliberately unprotected (reassembly validates it
// against the expected position). Exported so the DST wire-fault injector
// and the fuzz tests target the right byte ranges by construction.
inline constexpr std::size_t kSegmentHeaderBytes =
    sizeof(std::uint32_t) +  // magic
    sizeof(std::uint64_t) +  // base_seq
    sizeof(std::uint32_t) +  // record_count
    sizeof(std::uint32_t) +  // payload_len
    sizeof(std::uint32_t);   // payload_crc32c

// Maximum bytes a decoder will accept for one segment payload (a defense
// against corrupt length fields, not a format limit).
inline constexpr std::uint32_t kMaxPayloadBytes = 256u << 20;

// Appends the segment's wire form to *out.
void EncodeSegment(const LogSegment& segment, std::string* out);

// Decodes one segment frame from the front of `bytes`. On success sets
// *consumed to the frame's size and returns the segment. Failure modes:
//   kNotFound       - fewer bytes than a header (clean end of stream)
//   kInvalidArgument- bad magic, impossible length, CRC mismatch, or a
//                     truncated payload (torn tail)
Status DecodeSegment(std::string_view bytes, std::size_t* consumed,
                     std::unique_ptr<LogSegment>* out);

// Incremental reassembly of segment frames from a byte STREAM (a TCP
// socket): bytes arrive in arbitrary slices, so a frame routinely lands
// torn across reads — a state DecodeSegment alone cannot distinguish from
// a corrupt frame (both look like "truncated payload"). The reassembler
// buffers input and classifies the front of the stream:
//
//   Append(data, n);                      // as bytes arrive
//   while (true) {
//     Status s = Poll(&seg);
//     if (s.ok())            { deliver(seg); continue; }
//     if (s.code() == StatusCode::kNotFound) break;  // torn: need more
//     /* kInvalidArgument */ ...          // front is NOT a clean segment:
//                                         // a foreign (control) frame the
//                                         // caller parses via Buffered()/
//                                         // Consume(), or real corruption
//                                         // (NAK + SkipToMagic to resync)
//   }
//
// Verdicts are definitive, not racy: Poll reports corruption only when the
// bytes present already prove it (bad magic, implausible length, or a
// complete payload whose CRC mismatches); anything that could still become
// a valid frame with more input is kNotFound. The internal buffer compacts
// lazily (amortized O(bytes)); feeding one byte at a time is merely slow,
// never wrong (wire_test proves it).
class FrameReassembler {
 public:
  // Appends `n` raw stream bytes. The bytes are copied; the caller's buffer
  // may be reused immediately.
  void Append(const char* data, std::size_t n);

  // Tries to decode one complete segment frame off the front of the buffer.
  //   kOk             - *out decoded; the frame's bytes were consumed
  //   kNotFound       - the front is a (so far) valid frame prefix: wait
  //   kInvalidArgument- the front cannot ever decode: foreign magic, an
  //                     implausible length, or a CRC/structure failure on a
  //                     fully buffered frame. Nothing is consumed — the
  //                     caller inspects Buffered() (control frame?) or
  //                     resyncs with SkipToMagic/Consume.
  Status Poll(std::unique_ptr<LogSegment>* out);

  // The unconsumed front of the stream (valid until the next mutating
  // call). For parsing interleaved non-segment frames.
  std::string_view Buffered() const;

  // Drops `n` bytes (<= Buffered().size()) off the front: the caller
  // consumed a foreign frame or skipped garbage.
  void Consume(std::size_t n);

  // Resync after corruption: discards bytes until one of `magics`
  // (little-endian) starts the buffer. Returns true when found (the magic
  // is kept); false when the buffer was exhausted — at most 3 tail bytes
  // are retained so a magic torn across reads is still found by the next
  // Append+SkipToMagic.
  bool SkipToMagic(std::initializer_list<std::uint32_t> magics);

  std::size_t buffered_bytes() const { return buf_.size() - pos_; }

  void Clear() {
    buf_.clear();
    pos_ = 0;
  }

 private:
  void CompactIfWorthIt();

  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
};

}  // namespace c5::log

#endif  // C5_LOG_WIRE_H_
