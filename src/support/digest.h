// XXH64: the project's one content digest.
//
// It names three things: an input file's bytes (src/incr: "unchanged, skip the
// reparse"), a state-directory payload (src/incr/state_dir.h: payload files are
// content-addressed by it), and a .pari image (src/image/image_format.h: the header
// checksum).  This is the public xxHash 64-bit algorithm
// (https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md): four independent
// multiply lanes over 8-byte words, so the multiplies overlap instead of each waiting
// for the last, as a byte-at-a-time hash's must.  Words are read little-endian
// through memcpy, so any alignment and either host byte order give the same digest.
// The seed does not chain spans: Digest(b, Digest(a)) is not Digest(a + b), so a
// digest over two spans must say how it combines them (ImageChecksum does).

#ifndef SRC_SUPPORT_DIGEST_H_
#define SRC_SUPPORT_DIGEST_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace pathalias {
namespace support {
namespace digest_internal {

inline constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

template <typename T>
inline T LoadLE(const char* p) {
  T value;
  std::memcpy(&value, p, sizeof(value));
  if constexpr (std::endian::native == std::endian::big && sizeof(T) == 8) {
    value = __builtin_bswap64(value);
  } else if constexpr (std::endian::native == std::endian::big) {
    value = __builtin_bswap32(value);
  }
  return value;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  return std::rotl(acc + input * kP2, 31) * kP1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kP1 + kP4;
}

}  // namespace digest_internal

inline uint64_t Digest(std::string_view bytes, uint64_t seed = 0) {
  using namespace digest_internal;
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  uint64_t hash;
  if (bytes.size() >= 32) {
    uint64_t v1 = seed + kP1 + kP2, v2 = seed + kP2, v3 = seed, v4 = seed - kP1;
    for (const char* const limit = end - 32; p <= limit; p += 32) {
      v1 = Round(v1, LoadLE<uint64_t>(p));
      v2 = Round(v2, LoadLE<uint64_t>(p + 8));
      v3 = Round(v3, LoadLE<uint64_t>(p + 16));
      v4 = Round(v4, LoadLE<uint64_t>(p + 24));
    }
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    hash = MergeRound(MergeRound(MergeRound(MergeRound(hash, v1), v2), v3), v4);
  } else {
    hash = seed + kP5;
  }
  hash += bytes.size();
  for (; end - p >= 8; p += 8) {
    hash = std::rotl(hash ^ Round(0, LoadLE<uint64_t>(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    hash = std::rotl(hash ^ (LoadLE<uint32_t>(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    hash = std::rotl(hash ^ (static_cast<unsigned char>(*p) * kP5), 11) * kP1;
  }
  hash ^= hash >> 33;
  hash *= kP2;
  hash ^= hash >> 29;
  hash *= kP3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace support
}  // namespace pathalias

#endif  // SRC_SUPPORT_DIGEST_H_
