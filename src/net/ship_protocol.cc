#include "net/ship_protocol.h"

#include <cstring>

namespace c5::net {

namespace {

template <typename T>
void PutInt(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));  // little-endian hosts only, like wire.cc
  out->append(buf, sizeof(T));
}

template <typename T>
T GetInt(std::string_view in, std::size_t off) {
  T v{};
  std::memcpy(&v, in.data() + off, sizeof(T));
  return v;
}

}  // namespace

void EncodeRequest(const Request& req, std::string* out) {
  PutInt<std::uint32_t>(out, kRequestMagic);
  PutInt<std::uint8_t>(out, static_cast<std::uint8_t>(req.type));
  PutInt<std::uint64_t>(out, req.arg);
}

void EncodeControl(std::uint32_t magic, std::uint64_t seq, std::string* out) {
  PutInt<std::uint32_t>(out, magic);
  PutInt<std::uint64_t>(out, seq);
  PutInt<std::uint32_t>(out, ControlCrc(seq));
}

bool DecodeRequest(std::string_view bytes, Request* out, bool* malformed) {
  *malformed = false;
  if (bytes.size() < kRequestBytes) return false;
  if (GetInt<std::uint32_t>(bytes, 0) != kRequestMagic) {
    *malformed = true;
    return false;
  }
  const auto type = GetInt<std::uint8_t>(bytes, 4);
  if (type < static_cast<std::uint8_t>(RequestType::kSubscribe) ||
      type > static_cast<std::uint8_t>(RequestType::kAck)) {
    *malformed = true;
    return false;
  }
  out->type = static_cast<RequestType>(type);
  out->arg = GetInt<std::uint64_t>(bytes, 5);
  return true;
}

bool DecodeControl(std::string_view bytes, std::uint32_t magic,
                   std::uint64_t* seq) {
  if (bytes.size() < kControlBytes) return false;
  if (GetInt<std::uint32_t>(bytes, 0) != magic) return false;
  const auto s = GetInt<std::uint64_t>(bytes, 4);
  if (GetInt<std::uint32_t>(bytes, 12) != ControlCrc(s)) return false;
  *seq = s;
  return true;
}

std::uint32_t PeekMagic(std::string_view bytes) {
  if (bytes.size() < sizeof(std::uint32_t)) return 0;
  return GetInt<std::uint32_t>(bytes, 0);
}

}  // namespace c5::net
