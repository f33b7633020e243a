// Self-validating row payloads and order-independent table digests — the
// data half of the correctness gate.
//
// Every key-value row the benchmark writes is kValueBytes long:
//   [0, 8)    the key (little-endian), so a read can tell whose row it got
//             and Aggregate can sum it as a field
//   [8, 16)   stamp: writer id << 48 | per-writer sequence (writer 0 is the
//             preload)
//   [16, 24)  checksum over key and stamp
//   [24, ..)  filler derived from the checksum
// A torn, misrouted or corrupted version fails CheckValue.

#ifndef C5BENCH_PAYLOAD_H_
#define C5BENCH_PAYLOAD_H_

#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/types.h"

namespace c5bench {

inline constexpr std::size_t kValueBytes = 100;

inline std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

inline std::uint64_t MakeStamp(std::uint32_t writer, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(writer) << 48) | seq;
}

inline void FillValue(c5::Key key, std::uint64_t stamp, char* out) {
  const std::uint64_t sum = Mix64(key ^ Mix64(stamp));
  std::memcpy(out, &key, 8);
  std::memcpy(out + 8, &stamp, 8);
  std::memcpy(out + 16, &sum, 8);
  for (std::size_t i = 24; i < kValueBytes; ++i) {
    out[i] = static_cast<char>(sum >> (8 * (i % 8)));
  }
}

inline c5::Value MakeValue(c5::Key key, std::uint64_t stamp) {
  c5::Value v(kValueBytes, '\0');
  FillValue(key, stamp, v.data());
  return v;
}

// True iff `v` is an intact payload written for `key`.
inline bool CheckValue(c5::Key key, std::string_view v) {
  if (v.size() != kValueBytes) return false;
  std::uint64_t stamp = 0;
  std::memcpy(&stamp, v.data() + 8, 8);
  char expect[kValueBytes];
  FillValue(key, stamp, expect);
  return std::memcmp(expect, v.data(), kValueBytes) == 0;
}

// Order-independent digest of a set of (key, value) rows: two tables hold
// the same rows iff (with overwhelming probability) their digests match,
// whatever order each side enumerated them in.
struct Digest {
  std::uint64_t rows = 0;
  std::uint64_t sum = 0;
  std::uint64_t xored = 0;

  void Add(c5::Key key, std::string_view value) {
    std::uint64_t h = Mix64(key) ^ 0x9E3779B97F4A7C15ull;
    for (const char c : value) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
    }
    h = Mix64(h);
    ++rows;
    sum += h;
    xored ^= h;
  }

  bool operator==(const Digest&) const = default;
};

}  // namespace c5bench

#endif  // C5BENCH_PAYLOAD_H_
