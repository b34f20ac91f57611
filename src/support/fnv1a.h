// FNV-1a, 64-bit: the project's one content digest.
//
// It names three things: an input file's bytes (src/incr: "unchanged, skip the
// reparse"), a state-directory payload (src/incr/state_dir.h: payload files are
// content-addressed by it), and a .pari image's body (src/image: the header
// checksum).  Small and dependency-free; `seed` chains one digest across
// discontiguous spans (Fnv1a(b, Fnv1a(a)) == Fnv1a(a + b)).

#ifndef SRC_SUPPORT_FNV1A_H_
#define SRC_SUPPORT_FNV1A_H_

#include <cstdint>
#include <string_view>

namespace pathalias {
namespace support {

inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ull;

inline uint64_t Fnv1a(std::string_view bytes, uint64_t seed = kFnv1aOffsetBasis) {
  uint64_t hash = seed;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x00000100000001b3ull;
  }
  return hash;
}

}  // namespace support
}  // namespace pathalias

#endif  // SRC_SUPPORT_FNV1A_H_
