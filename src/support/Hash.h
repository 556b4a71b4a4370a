//===- support/Hash.h - Content hashing -------------------------*- C++ -*-===//
///
/// \file
/// The one content hash of the serving path: the response cache's key
/// hash (service/AllocationCache.h), the module tier's key hash
/// (service/ModuleTier.h) and, truncated to its low 32 bits, the wire
/// checksum (service/WireProtocol.h).
///
/// It consumes eight bytes per step, each word assembled little-endian
/// explicitly (like the frame header's fields), so the value is the same
/// on every host. The length is folded into the initial state, and the
/// zero-padded tail word is one more step. Each step is a bijection of
/// the state for a fixed word and of the word for a fixed state, so two
/// inputs of equal length that differ within one word always hash to
/// different 64-bit values. A final avalanche mixes the whole state into
/// the low 32 bits the checksum keeps.
///
/// Not cryptographic: every hash-addressed structure in this codebase
/// stores its full key material and compares it on lookup, so a collision
/// costs one extra comparison, never a wrong answer.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SUPPORT_HASH_H
#define CCRA_SUPPORT_HASH_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ccra {

namespace hash_detail {

inline constexpr std::uint64_t K1 = 0x9e3779b185ebca87ull;
inline constexpr std::uint64_t K2 = 0xc2b2ae3d27d4eb4full;
inline constexpr std::uint64_t K3 = 0x165667b19e3779f9ull;

/// The 8 bytes at \p P as a little-endian word (compiled to one load on
/// a little-endian host).
inline std::uint64_t loadLe64(const unsigned char *P) {
  return static_cast<std::uint64_t>(P[0]) |
         static_cast<std::uint64_t>(P[1]) << 8 |
         static_cast<std::uint64_t>(P[2]) << 16 |
         static_cast<std::uint64_t>(P[3]) << 24 |
         static_cast<std::uint64_t>(P[4]) << 32 |
         static_cast<std::uint64_t>(P[5]) << 40 |
         static_cast<std::uint64_t>(P[6]) << 48 |
         static_cast<std::uint64_t>(P[7]) << 56;
}

inline std::uint64_t step(std::uint64_t H, std::uint64_t W) {
  return std::rotl(H + W * K2, 31) * K1;
}

} // namespace hash_detail

/// 64-bit hash of the \p Len bytes at \p Data.
inline std::uint64_t hash64(const void *Data, std::size_t Len) {
  using namespace hash_detail;
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  std::uint64_t H = K3 ^ (static_cast<std::uint64_t>(Len) * K1);
  std::size_t I = 0;
  for (; I + 8 <= Len; I += 8)
    H = step(H, loadLe64(P + I));
  if (I < Len) {
    // The tail, zero-padded; the folded-in length tells it from zeros.
    std::uint64_t W = 0;
    for (std::size_t B = 0; I + B < Len; ++B)
      W |= static_cast<std::uint64_t>(P[I + B]) << (8 * B);
    H = step(H, W);
  }
  H ^= H >> 33;
  H *= K2;
  H ^= H >> 29;
  H *= K3;
  H ^= H >> 32;
  return H;
}

inline std::uint64_t hash64(std::string_view S) {
  return hash64(S.data(), S.size());
}

} // namespace ccra

#endif // CCRA_SUPPORT_HASH_H
