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
/// Layout mirrors the `(module, fn)` keying discipline of
/// analysis/AnalysisCache.h: a module-level entry holds the totals, the
/// replayed telemetry, and the `module <name>` header line, while each
/// function's summary and IR slice lives in its own (module-id, fn-index)
/// entry. A hit reassembles `printModule` output byte-for-byte from the
/// slices. Keys are hash-addressed (support/Hash.h FNV-1a 64) but every
/// entry stores its full key text and lookup compares it exactly, so a
/// hash collision costs one string compare, never a wrong response.
///
/// Bounded by bytes, evicting least-recently-used whole modules (a module
/// and its function entries enter and leave together; an entry larger than
/// the whole budget is simply not admitted). Thread-safe: one mutex, held
/// only for map/list operations — the expensive work a hit avoids (parse,
/// verify, engine run) never happens at all.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SERVICE_ALLOCATIONCACHE_H
#define CCRA_SERVICE_ALLOCATIONCACHE_H

#include "service/WireProtocol.h"

#include <cstdint>
#include <list>
#include <map>
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
  std::uint64_t Evictions = 0;  ///< modules evicted (not function entries)
  std::uint64_t Insertions = 0;
  std::size_t Bytes = 0;        ///< current footprint estimate
  std::size_t Modules = 0;
  std::size_t Functions = 0;
};

class AllocationCache {
public:
  /// One cached function: its response summary (absent for declarations,
  /// which appear in the IR but not in the response's function list) and
  /// its exact slice of the printModule output.
  struct FunctionRecord {
    bool HasSummary = false;
    FunctionSummary Summary;
    std::string Ir; ///< printFunction output + trailing '\n'
  };

  /// \p MaxBytes = 0 disables the cache (lookup always misses, insert is a
  /// no-op) — the "cache off" configuration is the same object, so callers
  /// never branch on a null pointer.
  explicit AllocationCache(std::size_t MaxBytes) : MaxBytes(MaxBytes) {}

  AllocationCache(const AllocationCache &) = delete;
  AllocationCache &operator=(const AllocationCache &) = delete;

  bool enabled() const { return MaxBytes > 0; }
  std::size_t capacityBytes() const { return MaxBytes; }

  /// On hit, rebuilds the full response (totals, per-function summaries,
  /// replayed telemetry, reassembled IR) into \p Out and returns true.
  /// Counts a miss when the cache is disabled or the key is absent.
  bool lookup(const std::string &Key, AllocResponse &Out);

  /// Publishes one successful allocation. \p IrHeader is the module header
  /// line of the printModule output; \p Functions holds one record per
  /// module function, in module order. Re-inserting an existing key is a
  /// no-op (two workers race to publish the same miss).
  void insert(const std::string &Key, const std::string &IrHeader,
              const CostBreakdown &Totals, const TelemetrySnapshot &Telemetry,
              std::vector<FunctionRecord> Functions);

  AllocationCacheStats stats() const;

private:
  struct ModuleEntry {
    std::uint64_t Id = 0;
    std::uint64_t Hash = 0;
    std::string Key; ///< full key material; compared exactly on lookup
    std::string IrHeader;
    CostBreakdown Totals;
    TelemetrySnapshot Telemetry;
    unsigned FunctionCount = 0;
    std::size_t Bytes = 0;
    std::list<std::uint64_t>::iterator LruPos;
  };

  /// Drops the LRU tail until the footprint fits. Caller holds M.
  void evictToFit();
  /// Removes one module entry and its function entries. Caller holds M.
  void erase(std::uint64_t Id);

  const std::size_t MaxBytes;

  mutable std::mutex M;
  std::uint64_t NextId = 1;
  std::size_t TotalBytes = 0;
  std::uint64_t Hits = 0, Misses = 0, Evictions = 0, Insertions = 0;
  /// hash -> ids of entries with that hash (collision bucket).
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> Buckets;
  std::unordered_map<std::uint64_t, ModuleEntry> Modules;
  /// (module id, function index) -> record: the per-function granularity.
  std::map<std::pair<std::uint64_t, unsigned>, FunctionRecord> Functions;
  std::list<std::uint64_t> Lru; ///< front = most recently used
};

} // namespace ccra

#endif // CCRA_SERVICE_ALLOCATIONCACHE_H
