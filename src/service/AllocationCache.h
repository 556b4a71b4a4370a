//===- service/AllocationCache.h - Content-addressed results ----*- C++ -*-===//
///
/// \file
/// The content-addressed allocation cache fronting the serving tier's
/// workers. Allocation in this codebase is deterministic — the oracle
/// lattice proves bit-identity across every engine configuration — so a
/// response is a pure function of (module text, behavior-affecting
/// options, register config, frequency mode). That whole tuple, flattened
/// by allocationCacheKey(), IS the cache key: a hit can replay the stored
/// response verbatim and be byte-identical to a cold allocation, with no
/// invalidation or coherence protocol ever needed.
///
/// An entry holds its full key and one immutable payload: the exact bytes
/// encodeAllocResponse produced for the cold miss. A hit hands out a
/// shared reference to those bytes, so it touches no AllocResponse, no
/// telemetry map and no formatting, and the caller copies them into its
/// reply outside the lock. Keys are hash-addressed (support/Hash.h FNV-1a
/// 64) but lookup compares the full key text, so a hash collision costs
/// one string compare, never a wrong response.
///
/// Bounded by bytes (an entry is charged its key, its payload and a fixed
/// overhead), evicting least-recently-used entries; an entry larger than
/// the whole budget is simply not admitted. Thread-safe: one mutex, held
/// only for map/list operations.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SERVICE_ALLOCATIONCACHE_H
#define CCRA_SERVICE_ALLOCATIONCACHE_H

#include "service/WireProtocol.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ccra {

/// Flattens everything an allocation's result depends on into one key
/// string: the canonical options key, the register config, the frequency
/// mode, and the verbatim module text. DeadlineMs is deliberately absent —
/// it is admission control, not behavior.
std::string allocationCacheKey(const AllocRequest &R);

struct AllocationCacheStats {
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  std::uint64_t Evictions = 0;
  std::uint64_t Insertions = 0;
  std::size_t Bytes = 0; ///< charged footprint of the resident entries
  std::size_t Modules = 0; ///< resident entries
};

class AllocationCache {
public:
  using Payload = std::shared_ptr<const std::string>;

  /// \p MaxBytes = 0 disables the cache (lookup always misses, insert is a
  /// no-op) — the "cache off" configuration is the same object, so callers
  /// never branch on a null pointer.
  explicit AllocationCache(std::size_t MaxBytes) : MaxBytes(MaxBytes) {}

  AllocationCache(const AllocationCache &) = delete;
  AllocationCache &operator=(const AllocationCache &) = delete;

  bool enabled() const { return MaxBytes > 0; }
  std::size_t capacityBytes() const { return MaxBytes; }

  /// The stored encoded response for \p Key, or null. Counts a miss when
  /// the cache is disabled or the key is absent.
  Payload lookup(const std::string &Key);

  /// Publishes the encoded response of one successful allocation.
  /// Re-inserting an existing key is a no-op (two workers race to publish
  /// the same miss).
  void insert(const std::string &Key, std::string Encoded);

  AllocationCacheStats stats() const;

  // Adapters for the benchmark's in-process replay, which publishes and
  // reads responses piecewise. Both go through the one payload store.

  /// One function of a piecewise insert: its response summary (absent for
  /// declarations, which appear in the IR but not in the function list)
  /// and its printFunction output plus a trailing '\n'.
  struct FunctionRecord {
    bool HasSummary = false;
    FunctionSummary Summary;
    std::string Ir;
  };

  /// On hit, parses the stored payload into \p Out (an exact round trip).
  bool lookup(const std::string &Key, AllocResponse &Out);

  /// Encodes the response made of \p IrHeader (the `module` line), the
  /// records in module order, \p Totals and \p Telemetry, and inserts it.
  void insert(const std::string &Key, const std::string &IrHeader,
              const CostBreakdown &Totals, const TelemetrySnapshot &Telemetry,
              std::vector<FunctionRecord> Functions);

private:
  struct Entry {
    std::uint64_t Hash = 0;
    std::string Key; ///< full key material; compared exactly on lookup
    Payload Bytes;
    std::size_t Charge = 0;
  };
  using EntryList = std::list<Entry>;

  /// The entry for \p Key (hash \p Hash), or Lru.end(). Caller holds M.
  EntryList::iterator find(std::uint64_t Hash, const std::string &Key);
  /// Drops the LRU tail until the footprint fits. Caller holds M.
  void evictToFit();

  const std::size_t MaxBytes;

  mutable std::mutex M;
  std::size_t TotalBytes = 0;
  std::uint64_t Hits = 0, Misses = 0, Evictions = 0, Insertions = 0;
  EntryList Lru; ///< front = most recently used
  /// Key hash -> entry; colliding keys share a hash.
  std::unordered_multimap<std::uint64_t, EntryList::iterator> Index;
};

} // namespace ccra

#endif // CCRA_SERVICE_ALLOCATIONCACHE_H
