//===- analysis/AnalysisCache.h - Shared per-module analyses ----*- C++ -*-===//
///
/// \file
/// A concurrency-safe cache of the three module-level analyses the
/// experiment grid would otherwise recompute per grid point:
///
/// - FrequencyInfo, keyed by (module, FrequencyMode). One per-function
///   Gaussian solve + one interprocedural call-graph iteration per mode,
///   shared by every grid point of that mode; each point rekeys the result
///   onto its private clone with FrequencyInfo::remappedTo (cheap copies,
///   identical doubles).
/// - Baseline Liveness, keyed by (module, function index). Computed on the
///   pristine source function, and exact for function index I of any
///   pristine clone too: cloneModule preserves block ids and vreg
///   numbering, so the dataflow solution carries over bit for bit. Engines
///   use it to seed round 1 instead of re-running the fixpoint.
/// - Round-1 coalescing outcomes (CoalesceOutcome), keyed by (module,
///   function index, Int register total, Float register total, aggressive
///   flag). Round-1 coalescing reads only the pristine code, its liveness,
///   each bank's register total (the Briggs test's N) and the aggressive
///   flag: not the caller/callee split, the allocator, the cost model or
///   the frequencies (those weigh only the final pass's live-range costs).
///   So every allocation of a clone under the same key merges the same
///   classes and deletes the same copies, and the engine replays the
///   recorded merges instead of iterating the coalescer
///   (Coalescer::replay).
///
/// Keying rules (what makes sharing sound): entries are keyed by the
/// *source* module pointer — the immutable original that grid points clone
/// — never by a clone. Clones are mutated by allocation, so their analyses
/// go stale; the source module must stay unmodified for the cache's
/// lifetime, which the harness guarantees by allocating only clones.
///
/// Frequency and liveness misses compute under the cache lock. That
/// serializes first-computation, which is the point: when 24 grid points
/// race for the same key, one computes and 23 wait, instead of 24 threads
/// duplicating the work. A coalescing outcome is a by-product of an
/// allocation already under way, so its miss computes outside the lock,
/// which is held only to look up and to insert: racing allocations may
/// each coalesce, the first to publish wins, and every later reader sees
/// that one entry (the losers' outcomes are identical to it).
///
/// Memory: frequencies and baseline liveness are bounded by the module
/// (one per mode, one per function), but the memo grows with every new
/// register budget, and a caller can choose thousands of budgets. A cache
/// built with a memo byte limit charges each stored outcome its heap bytes
/// (the per-budget slot vector and its map node on the budget's first
/// publish, the merge list on each) and stores nothing that would cross
/// the limit: past it, allocations of a new budget coalesce in full, as
/// they would with no cache. The serving daemon's module tier sets the
/// limit per entry (service/ModuleTier.h); the experiment grid's cache,
/// whose lifetime is one grid, has none.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_ANALYSIS_ANALYSISCACHE_H
#define CCRA_ANALYSIS_ANALYSISCACHE_H

#include "analysis/Frequency.h"
#include "analysis/Liveness.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

namespace ccra {

/// What round-1 coalescing did to one function under one register budget:
/// the VRegClasses::merge calls in order, and the run's counters. Merges'
/// size is the run's coalesced-move count. Replaying the calls on fresh
/// classes reproduces every class root and rank: union by rank depends only
/// on the call sequence, never on path compression.
struct CoalesceOutcome {
  std::vector<std::pair<VirtReg, VirtReg>> Merges;
  unsigned Passes = 0;
  unsigned LivenessComputes = 0;
};

/// The memo key of a CoalesceOutcome (see the file comment).
struct CoalesceKey {
  const Module *Source = nullptr;
  unsigned FnIdx = 0;
  unsigned IntRegs = 0;
  unsigned FloatRegs = 0;
  bool Aggressive = false;
};

class ModuleAnalysisCache {
public:
  /// \p CoalesceByteLimit bounds the memo's heap bytes (see the file
  /// comment); the default is no bound.
  explicit ModuleAnalysisCache(
      std::size_t CoalesceByteLimit = static_cast<std::size_t>(-1))
      : CoalesceByteLimit(CoalesceByteLimit) {}
  ModuleAnalysisCache(const ModuleAnalysisCache &) = delete;
  ModuleAnalysisCache &operator=(const ModuleAnalysisCache &) = delete;

  /// Returns the shared FrequencyInfo for \p M under \p Mode, computing it
  /// on the first request. The reference stays valid (and the object
  /// unmodified) for the cache's lifetime. \p WasHit, if non-null, reports
  /// whether the entry already existed.
  const FrequencyInfo &frequencies(const Module &M, FrequencyMode Mode,
                                   bool *WasHit = nullptr);

  /// Returns the baseline liveness of `M.functions()[FnIdx]`, computing it
  /// on the first request. Valid as a round-1 seed for the same-index
  /// function of any pristine clone of \p M.
  const Liveness &baselineLiveness(const Module &M, unsigned FnIdx,
                                   bool *WasHit = nullptr);

  /// The published round-1 coalescing outcome for \p Key, or null (a
  /// miss: the caller coalesces and publishes). Counts a hit or a miss.
  const CoalesceOutcome *coalesceOutcome(const CoalesceKey &Key);

  /// Stores \p Outcome under \p Key unless an entry exists, and returns
  /// the stored entry (the first publisher's), valid for the cache's
  /// lifetime. Returns null, storing nothing, when the key is new and
  /// storing it would take the memo past its byte limit.
  const CoalesceOutcome *publishCoalesceOutcome(const CoalesceKey &Key,
                                                CoalesceOutcome Outcome);

  /// Occupancy counters (monotone since construction). Scheduling-
  /// dependent: hit/miss split varies with which grid point gets to a key
  /// first, so these feed the "sched." telemetry namespace only.
  struct Stats {
    std::uint64_t FrequencyHits = 0;
    std::uint64_t FrequencyMisses = 0;
    std::uint64_t LivenessHits = 0;
    std::uint64_t LivenessMisses = 0;
    std::uint64_t CoalesceHits = 0;
    std::uint64_t CoalesceMisses = 0;
    /// Heap bytes charged to the memo: never above the byte limit.
    std::size_t CoalesceBytes = 0;

    /// Frequency and baseline-liveness lookups only; the coalescing memo
    /// is counted apart (sched.analysis_cache_coalesce_*).
    std::uint64_t hits() const { return FrequencyHits + LivenessHits; }
    std::uint64_t misses() const { return FrequencyMisses + LivenessMisses; }
  };
  Stats stats() const;

private:
  mutable std::mutex M;
  // unique_ptr values: returned references survive map growth.
  std::map<std::pair<const Module *, FrequencyMode>,
           std::unique_ptr<FrequencyInfo>>
      Frequencies;
  std::map<std::pair<const Module *, unsigned>, std::unique_ptr<Liveness>>
      Baselines;
  // One slot per function of the module, per budget: a map node per
  // function would cost more than most outcomes. A slot is empty until
  // published (Passes == 0; a recorded run has at least one pass). The
  // vector never resizes, so slot addresses are stable.
  std::map<std::tuple<const Module *, unsigned, unsigned, bool>,
           std::vector<CoalesceOutcome>>
      Coalesced;
  const std::size_t CoalesceByteLimit;
  Stats Counts;
};

} // namespace ccra

#endif // CCRA_ANALYSIS_ANALYSISCACHE_H
