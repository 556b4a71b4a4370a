//===- support/Hash.h - Content hashing -------------------------*- C++ -*-===//
///
/// \file
/// FNV-1a 64-bit content hashing, shared by the content-addressed
/// allocation cache (service/AllocationCache.h) and the module tier
/// (service/ModuleTier.h). Not cryptographic: every
/// hash-addressed structure in this codebase stores its full key material
/// and compares it on lookup, so a collision costs one extra comparison,
/// never a wrong answer.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SUPPORT_HASH_H
#define CCRA_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ccra {

inline constexpr std::uint64_t Fnv1a64Basis = 14695981039346656037ull;
inline constexpr std::uint64_t Fnv1a64Prime = 1099511628211ull;

/// FNV-1a over \p Len bytes, continuing from \p Seed; chain calls to hash
/// a multi-part key without concatenating the parts.
inline std::uint64_t fnv1a64(const void *Data, std::size_t Len,
                             std::uint64_t Seed = Fnv1a64Basis) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  std::uint64_t H = Seed;
  for (std::size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= Fnv1a64Prime;
  }
  return H;
}

inline std::uint64_t fnv1a64(std::string_view S,
                             std::uint64_t Seed = Fnv1a64Basis) {
  return fnv1a64(S.data(), S.size(), Seed);
}

} // namespace ccra

#endif // CCRA_SUPPORT_HASH_H
