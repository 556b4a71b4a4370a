//===- service/ModuleTier.h - Parsed modules behind the cache ---*- C++ -*-===//
///
/// \file
/// The module tier: the serving daemon's second cache, behind the
/// response cache (service/AllocationCache.h). The response cache only
/// helps on an exact repeat; a request for a module the daemon has already
/// seen under other options, another register config or the other
/// frequency mode is a response miss. The module tier lets such a miss
/// skip parse (or binary decode), IR verification, frequency analysis and
/// baseline liveness: each entry holds the pristine, verified Module and
/// its own ModuleAnalysisCache, and every allocation of it runs on a clone
/// (harness/Experiment.h SourceAllocation), exactly as an experiment-grid
/// point does.
///
/// Keying mirrors the response cache: the wire codec tag plus the exact
/// module bytes, hash-addressed (the caller passes the support/Hash.h
/// hash64 it computed once at admission) and compared exactly on lookup,
/// so a hash collision costs one string compare, never a wrong module. Each
/// entry owns its analysis cache because that cache is keyed by Module
/// pointer: one server-wide cache could hand an evicted module's analyses
/// to a new module that reuses its address.
///
/// Bounded by bytes. An entry is charged its wire size times the measured
/// expansion of parsed IR over its encoding (TextExpansion,
/// BinaryExpansion; analyses add at most ~15% more on the corpus), and
/// least-recently-used entries go first. An entry charged more than an
/// eighth of the budget is never retained: large modules visited in a
/// cycle are LRU's worst case, and retaining them only raises the peak
/// footprint. Evicted entries stay alive, via shared_ptr, for the requests
/// still allocating clones of them. Thread-safe: one mutex, held only for
/// map and list operations.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SERVICE_MODULETIER_H
#define CCRA_SERVICE_MODULETIER_H

#include "analysis/AnalysisCache.h"
#include "ir/Module.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ccra {

struct ModuleTierStats {
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  std::uint64_t Evictions = 0;
  std::size_t Entries = 0;
  std::size_t Bytes = 0; ///< sum of the retained entries' charges
};

class ModuleTier {
public:
  /// One retained module. Program is never allocated (only its clones
  /// are), so Analyses stay exact for the entry's lifetime.
  struct Entry {
    std::unique_ptr<const Module> Program;
    ModuleAnalysisCache Analyses;
  };

  /// Parsed-IR bytes per wire byte: parsed IR measured 9-12x its text and
  /// 33-36x its CIR2 encoding.
  static constexpr std::size_t TextExpansion = 12;
  static constexpr std::size_t BinaryExpansion = 40;

  /// \p MaxBytes = 0 disables the tier (lookup misses without counting,
  /// nothing is admitted).
  explicit ModuleTier(std::size_t MaxBytes) : MaxBytes(MaxBytes) {}

  ModuleTier(const ModuleTier &) = delete;
  ModuleTier &operator=(const ModuleTier &) = delete;

  bool enabled() const { return MaxBytes > 0; }

  /// The budget charge of a module of \p WireBytes over the given codec.
  static std::size_t charge(bool Binary, std::size_t WireBytes) {
    return WireBytes * (Binary ? BinaryExpansion : TextExpansion);
  }

  /// Whether a module of this size would be retained: the tier is on and
  /// the module's charge is at most an eighth of the budget.
  bool admits(bool Binary, std::size_t WireBytes) const {
    return enabled() && charge(Binary, WireBytes) <= MaxBytes / 8;
  }

  /// The entry for (\p Binary, \p Bytes), or null. \p Hash is
  /// hash64(\p Bytes). Counts a hit or a miss when the tier is on.
  std::shared_ptr<Entry> lookup(std::uint64_t Hash, bool Binary,
                                const std::string &Bytes);

  /// Retains \p Program, a freshly parsed and verified module of
  /// \p Bytes, which admits() must accept. Returns its entry, or the
  /// existing one if another worker inserted the same key first.
  std::shared_ptr<Entry> insert(std::uint64_t Hash, bool Binary,
                                const std::string &Bytes,
                                std::unique_ptr<Module> Program);

  ModuleTierStats stats() const;

private:
  struct Slot {
    std::uint64_t Hash;
    bool Binary;
    std::string Bytes; ///< key material; compared exactly on lookup
    std::size_t Charge;
    std::shared_ptr<Entry> Value;
  };
  using SlotList = std::list<Slot>;

  /// The slot keyed (Binary, Bytes), or Lru.end(). Caller holds M.
  SlotList::iterator find(std::uint64_t Hash, bool Binary,
                          const std::string &Bytes);

  const std::size_t MaxBytes;

  mutable std::mutex M;
  SlotList Lru; ///< front = most recently used
  std::unordered_multimap<std::uint64_t, SlotList::iterator> Index;
  std::size_t TotalBytes = 0;
  std::uint64_t Hits = 0, Misses = 0, Evictions = 0;
};

} // namespace ccra

#endif // CCRA_SERVICE_MODULETIER_H
