// Wire format and file-backed log archive: roundtrip fidelity, CRC
// corruption detection, torn-tail (crash) semantics, and replay of an
// archive through a replica.

#include "log/wire.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/protocol_factory.h"
#include "log/log_file.h"
#include "log/segment_source.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace c5 {
namespace {

using log::DecodeSegment;
using log::EncodeSegment;
using log::LogSegment;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::unique_ptr<LogSegment> MakeSegment(std::uint64_t base_seq,
                                        int records) {
  auto seg = std::make_unique<LogSegment>(base_seq);
  for (int i = 0; i < records; ++i) {
    log::LogRecord rec;
    rec.table = static_cast<TableId>(i % 3);
    rec.op = static_cast<OpType>(i % 3);
    rec.last_in_txn = (i % 4) == 3 || i == records - 1;
    rec.row = 1000 + i;
    rec.key = 77000 + i;
    rec.commit_ts = base_seq + i + 1;
    const std::string value = std::string("value-") + std::to_string(i) +
                              std::string(i % 7, 'x');  // varied lengths
    rec.value = value;  // Append internalizes the bytes before `value` dies
    seg->Append(rec);
  }
  return seg;
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  unsigned char zeros[32] = {0};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
  // "123456789" -> 0xE3069283 (standard check value).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  // Empty input.
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(WireTest, RoundTripsAllFields) {
  const auto seg_ptr = MakeSegment(42, 25);
  const LogSegment& seg = *seg_ptr;
  std::string bytes;
  EncodeSegment(seg, &bytes);

  std::size_t consumed = 0;
  std::unique_ptr<LogSegment> decoded;
  ASSERT_TRUE(DecodeSegment(bytes, &consumed, &decoded).ok());
  EXPECT_EQ(consumed, bytes.size());
  ASSERT_EQ(decoded->size(), seg.size());
  EXPECT_EQ(decoded->base_seq(), seg.base_seq());
  for (std::size_t i = 0; i < seg.size(); ++i) {
    const auto& a = seg.record(i);
    const auto& b = decoded->record(i);
    EXPECT_EQ(a.table, b.table);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.last_in_txn, b.last_in_txn);
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.commit_ts, b.commit_ts);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(b.prev_ts, kInvalidTimestamp)
        << "prev_ts must be backup-computed, never shipped";
  }
}

TEST(WireTest, EmptySegmentRoundTrips) {
  const LogSegment seg(7);
  std::string bytes;
  EncodeSegment(seg, &bytes);
  std::size_t consumed = 0;
  std::unique_ptr<LogSegment> decoded;
  ASSERT_TRUE(DecodeSegment(bytes, &consumed, &decoded).ok());
  EXPECT_EQ(decoded->size(), 0u);
  EXPECT_EQ(decoded->base_seq(), 7u);
}

TEST(WireTest, DetectsEverySingleBitFlipInHeaderAndPayload) {
  const auto seg_ptr = MakeSegment(1, 4);
  const LogSegment& seg = *seg_ptr;
  std::string bytes;
  EncodeSegment(seg, &bytes);

  // Flip one bit at a time; decoding must never silently yield a segment
  // that differs from the original (it may legitimately succeed when the
  // flip is detected-equivalent — it cannot be, since every byte is load-
  // bearing here: magic, lengths, CRC, or CRC-covered payload).
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    std::string corrupt = bytes;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x10);
    std::size_t consumed = 0;
    std::unique_ptr<LogSegment> decoded;
    const Status s = DecodeSegment(corrupt, &consumed, &decoded);
    if (s.ok()) {
      // A flip in base_seq's bytes is outside the CRC; it must still decode
      // the payload correctly. Anything else must fail.
      ASSERT_GE(byte, 4u);
      ASSERT_LT(byte, 12u) << "undetected corruption at byte " << byte;
      EXPECT_NE(decoded->base_seq(), seg.base_seq());
    }
  }
}

// Fuzz-style exhaustive corruption: flip EVERY bit of EVERY byte of a valid
// frame. Decode must either fail cleanly or — for the CRC-uncovered
// base_seq field — succeed with only base_seq changed. No outcome may read
// out of bounds or otherwise invoke UB (the ASan lane in scripts/check.sh
// runs this loop with instrumentation).
TEST(WireTest, EveryBitFlipRejectsOrIsBaseSeqOnly) {
  const auto seg_ptr = MakeSegment(3, 6);
  std::string bytes;
  EncodeSegment(*seg_ptr, &bytes);
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      std::size_t consumed = 0;
      std::unique_ptr<LogSegment> decoded;
      const Status s = DecodeSegment(corrupt, &consumed, &decoded);
      if (!s.ok()) continue;
      ASSERT_GE(byte, 4u) << "corrupt magic accepted (byte " << byte << ")";
      ASSERT_LT(byte, 12u) << "undetected payload/CRC corruption at byte "
                           << byte << " bit " << bit;
      EXPECT_NE(decoded->base_seq(), seg_ptr->base_seq());
      ASSERT_EQ(decoded->size(), seg_ptr->size());
      for (std::size_t i = 0; i < decoded->size(); ++i) {
        EXPECT_EQ(decoded->record(i).value, seg_ptr->record(i).value);
      }
    }
  }
}

// Hostile frames with a VALID CRC: the checksum covers the payload, so a
// malicious/buggy sender can still ship internally inconsistent frames.
// The decoder's structural validation — not the CRC — must reject each one
// without reading out of bounds.
TEST(WireTest, ValidCrcHostileStructureIsRejected) {
  // Helper: frame up an arbitrary payload with a correct header + CRC.
  const auto frame = [](std::uint64_t base_seq, std::uint32_t record_count,
                        const std::string& payload) {
    std::string out;
    const auto put32 = [&out](std::uint32_t v) {
      out.append(reinterpret_cast<const char*>(&v), 4);
    };
    const auto put64 = [&out](std::uint64_t v) {
      out.append(reinterpret_cast<const char*>(&v), 8);
    };
    put32(log::kSegmentMagic);
    put64(base_seq);
    put32(record_count);
    put32(static_cast<std::uint32_t>(payload.size()));
    put32(Crc32c(payload.data(), payload.size()));
    out += payload;
    return out;
  };
  const auto reject = [](const std::string& bytes, const char* what) {
    std::size_t consumed = 0;
    std::unique_ptr<LogSegment> decoded;
    const Status s = DecodeSegment(bytes, &consumed, &decoded);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << what;
  };

  // Record-layout offsets, derived from the format documented in wire.h:
  // table u32, op u8, last_in_txn u8, row u64, key u64, commit_ts u64,
  // value_len u32, value bytes.
  constexpr std::size_t kOpOffset = sizeof(std::uint32_t);
  constexpr std::size_t kValueLenOffset =
      sizeof(std::uint32_t) + 2 * sizeof(std::uint8_t) +
      3 * sizeof(std::uint64_t);
  // payload_len sits after magic (u32) + base_seq (u64) + record_count (u32).
  constexpr std::size_t kPayloadLenOffset =
      2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);

  // One well-formed record payload to mutate.
  std::string rec;
  {
    const auto seg = MakeSegment(0, 1);
    std::string full;
    EncodeSegment(*seg, &full);
    rec = full.substr(log::kSegmentHeaderBytes);
  }

  // record_count larger than the records present: decoder must hit the
  // payload end, not read past it.
  reject(frame(0, 1000, rec), "record_count overruns payload");
  // record_count near 2^32: rejected by the header bound before the
  // decoder sizes anything from it (no bad_alloc escapes a receive loop).
  reject(frame(0, 0xFFFFFFFFu, rec), "huge record_count accepted");
  // record_count smaller: trailing bytes must be rejected, not ignored.
  reject(frame(0, 0, rec), "trailing bytes accepted");
  // value_len pointing far past the payload (valid CRC over the lie).
  {
    std::string lie = rec;
    const std::uint32_t huge = 0x7FFFFFFF;
    std::memcpy(lie.data() + kValueLenOffset, &huge, sizeof(huge));
    reject(frame(0, 1, lie), "value_len overruns payload");
  }
  // Unknown op code with a valid CRC.
  {
    std::string lie = rec;
    lie[kOpOffset] = 7;
    reject(frame(0, 1, lie), "unknown op accepted");
  }
  // Payload length field beyond the hard cap.
  {
    std::string bytes = frame(0, 1, rec);
    const std::uint32_t huge = (300u << 20);
    std::memcpy(bytes.data() + kPayloadLenOffset, &huge, sizeof(huge));
    reject(bytes, "implausible payload length accepted");
  }
}

TEST(WireTest, TruncationIsTornTail) {
  const auto seg_ptr = MakeSegment(1, 10);
  std::string bytes;
  EncodeSegment(*seg_ptr, &bytes);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{23},
        bytes.size() - 1}) {
    std::size_t consumed = 0;
    std::unique_ptr<LogSegment> decoded;
    const Status s =
        DecodeSegment(std::string_view(bytes).substr(0, keep), &consumed,
                      &decoded);
    EXPECT_FALSE(s.ok()) << "keep=" << keep;
  }
}

TEST(LogFileTest, WriteReadRoundTrip) {
  const std::string path = TempPath("c5_wire_roundtrip.log");
  {
    log::LogFileWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    for (int s = 0; s < 5; ++s) {
      ASSERT_TRUE(writer.Append(*MakeSegment(s * 100, 20)).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  log::ReadLogResult result;
  ASSERT_TRUE(log::ReadLogFile(path, &result).ok());
  EXPECT_TRUE(result.clean_end);
  EXPECT_EQ(result.log.NumSegments(), 5u);
  EXPECT_EQ(result.log.NumRecords(), 100u);
  std::filesystem::remove(path);
}

TEST(LogFileTest, TornTailKeepsValidPrefix) {
  const std::string path = TempPath("c5_wire_torn.log");
  {
    log::LogFileWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    for (int s = 0; s < 4; ++s) {
      ASSERT_TRUE(writer.Append(*MakeSegment(s * 100, 20)).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  // Truncate mid-way through the last frame (the crash shape).
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 13);

  log::ReadLogResult result;
  ASSERT_TRUE(log::ReadLogFile(path, &result).ok());
  EXPECT_FALSE(result.clean_end);
  EXPECT_EQ(result.log.NumSegments(), 3u) << "valid prefix preserved";
  std::filesystem::remove(path);
}

TEST(LogFileTest, MissingFileIsNotFound) {
  log::ReadLogResult result;
  EXPECT_EQ(log::ReadLogFile(TempPath("c5_wire_nonexistent.log"), &result)
                .code(),
            StatusCode::kNotFound);
}

// End to end: a real primary's log goes through the wire format to disk,
// is read back, and replays through C5 to the primary's exact state.
TEST(LogFileTest, ArchivedLogReplaysToIdenticalState) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/2,
                                       /*txns_per_client=*/200);
  const std::string path = TempPath("c5_wire_replay.log");
  {
    log::LogFileWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
      ASSERT_TRUE(writer.Append(*run.log.segment(s)).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }

  log::ReadLogResult archive;
  ASSERT_TRUE(log::ReadLogFile(path, &archive).ok());
  ASSERT_TRUE(archive.clean_end);
  ASSERT_EQ(archive.log.NumRecords(), run.log.NumRecords());

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::OfflineSegmentSource source(&archive.log);
  auto replica = core::MakeReplica(core::ProtocolKind::kC5, &backup,
                                   {.num_workers = 4});
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  replica->Stop();

  EXPECT_EQ(test::StateDigest(backup, kMaxTimestamp),
            test::StateDigest(run.primary->db, kMaxTimestamp));
  std::filesystem::remove(path);
}

// ---- FrameReassembler: segment frames torn across arbitrary stream reads ---

// Checks that `got` decoded identically to `want` (the reassembler hands
// back a private segment; field-for-field equality is the contract).
void ExpectSegmentsEqual(const LogSegment& got, const LogSegment& want) {
  ASSERT_EQ(got.base_seq(), want.base_seq());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.record(i).table, want.record(i).table);
    EXPECT_EQ(got.record(i).op, want.record(i).op);
    EXPECT_EQ(got.record(i).key, want.record(i).key);
    EXPECT_EQ(got.record(i).commit_ts, want.record(i).commit_ts);
    EXPECT_EQ(got.record(i).value, want.record(i).value);
  }
}

TEST(FrameReassemblerTest, OneByteAtATimeDecodesEveryFrame) {
  // The pathological slicing: every read delivers a single byte, so every
  // frame is torn at every possible offset along the way.
  std::string stream;
  std::vector<std::unique_ptr<LogSegment>> sent;
  std::uint64_t base = 0;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(MakeSegment(base, 3 + i));
    base += sent.back()->size();
    EncodeSegment(*sent.back(), &stream);
  }

  log::FrameReassembler reasm;
  std::vector<std::unique_ptr<LogSegment>> got;
  for (const char byte : stream) {
    reasm.Append(&byte, 1);
    for (;;) {
      std::unique_ptr<LogSegment> seg;
      const Status s = reasm.Poll(&seg);
      if (s.ok()) {
        got.push_back(std::move(seg));
        continue;
      }
      // Mid-frame the verdict must always be "need more", never corruption.
      ASSERT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
      break;
    }
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    ExpectSegmentsEqual(*got[i], *sent[i]);
  }
  EXPECT_EQ(reasm.buffered_bytes(), 0u);
}

TEST(FrameReassemblerTest, RandomSlicingDecodesEveryFrame) {
  const std::uint64_t seed = test::TestSeed(7);
  Rng rng(seed);
  std::string stream;
  std::vector<std::unique_ptr<LogSegment>> sent;
  std::uint64_t base = 0;
  for (int i = 0; i < 12; ++i) {
    sent.push_back(MakeSegment(base, 1 + static_cast<int>(rng.Uniform(20))));
    base += sent.back()->size();
    EncodeSegment(*sent.back(), &stream);
  }

  log::FrameReassembler reasm;
  std::vector<std::unique_ptr<LogSegment>> got;
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.Uniform(97), stream.size() - off);
    reasm.Append(stream.data() + off, n);
    off += n;
    for (;;) {
      std::unique_ptr<LogSegment> seg;
      const Status s = reasm.Poll(&seg);
      if (s.ok()) {
        got.push_back(std::move(seg));
        continue;
      }
      ASSERT_EQ(s.code(), StatusCode::kNotFound);
      break;
    }
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    ExpectSegmentsEqual(*got[i], *sent[i]);
  }
}

TEST(FrameReassemblerTest, CorruptionVerdictIsDefinitiveNotTorn) {
  std::string frame;
  EncodeSegment(*MakeSegment(0, 8), &frame);
  // Flip one payload byte: CRC must reject — but only once the frame is
  // fully buffered. Any prefix is indistinguishable from a torn frame and
  // must stay kNotFound.
  frame[log::kSegmentHeaderBytes + 2] =
      static_cast<char>(frame[log::kSegmentHeaderBytes + 2] ^ 0x40);

  log::FrameReassembler reasm;
  std::unique_ptr<LogSegment> seg;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    reasm.Append(&frame[i], 1);
    ASSERT_EQ(reasm.Poll(&seg).code(), StatusCode::kNotFound)
        << "premature verdict at byte " << i;
  }
  reasm.Append(&frame[frame.size() - 1], 1);
  EXPECT_EQ(reasm.Poll(&seg).code(), StatusCode::kInvalidArgument);
  // Nothing was consumed: the caller decides how to resync.
  EXPECT_EQ(reasm.buffered_bytes(), frame.size());
}

TEST(FrameReassemblerTest, ForeignMagicIsImmediatelyInvalid) {
  log::FrameReassembler reasm;
  const char junk[] = {'n', 'o', 'p', 'e'};
  reasm.Append(junk, sizeof(junk));
  std::unique_ptr<LogSegment> seg;
  EXPECT_EQ(reasm.Poll(&seg).code(), StatusCode::kInvalidArgument);
}

TEST(FrameReassemblerTest, SkipToMagicResyncsPastGarbageAndSplitMagic) {
  std::string clean;
  const auto want = MakeSegment(5, 4);
  EncodeSegment(*want, &clean);

  log::FrameReassembler reasm;
  // Garbage, then a valid frame. Feed the garbage plus only the first TWO
  // bytes of the frame: the magic itself is torn across reads, and the
  // 3-byte tail retention must still find it after the next Append.
  std::string garbage = "this is definitely not a segment frame";
  reasm.Append(garbage.data(), garbage.size());
  reasm.Append(clean.data(), 2);
  EXPECT_FALSE(reasm.SkipToMagic({log::kSegmentMagic}));
  reasm.Append(clean.data() + 2, clean.size() - 2);
  ASSERT_TRUE(reasm.SkipToMagic({log::kSegmentMagic}));

  std::unique_ptr<LogSegment> seg;
  ASSERT_TRUE(reasm.Poll(&seg).ok());
  ExpectSegmentsEqual(*seg, *want);
  EXPECT_EQ(reasm.buffered_bytes(), 0u);
}

TEST(FrameReassemblerTest, ConsumeAndBufferedExposeForeignFrames) {
  // A foreign (control) frame interleaved between segments: the caller
  // parses it via Buffered() and drops it with Consume(), and decoding
  // resumes cleanly.
  std::string stream;
  const auto first = MakeSegment(0, 3);
  EncodeSegment(*first, &stream);
  const std::string control = "CTRL-FRAME-16b!!";
  stream += control;
  const auto second = MakeSegment(first->size(), 2);
  EncodeSegment(*second, &stream);

  log::FrameReassembler reasm;
  reasm.Append(stream.data(), stream.size());

  std::unique_ptr<LogSegment> seg;
  ASSERT_TRUE(reasm.Poll(&seg).ok());
  ExpectSegmentsEqual(*seg, *first);
  ASSERT_EQ(reasm.Poll(&seg).code(), StatusCode::kInvalidArgument)
      << "control frame must not decode as a segment";
  ASSERT_GE(reasm.Buffered().size(), control.size());
  EXPECT_EQ(reasm.Buffered().substr(0, control.size()), control);
  reasm.Consume(control.size());
  ASSERT_TRUE(reasm.Poll(&seg).ok());
  ExpectSegmentsEqual(*seg, *second);
}

}  // namespace
}  // namespace c5
