//===- support/Telemetry.h - Phase timers and counters ----------*- C++ -*-===//
///
/// \file
/// The measurement layer of the allocation engine: named counters (rounds,
/// spills, coalesces, callee registers paid, ...) and per-phase wall-clock
/// timers, with JSON and CSV emitters so bench output is machine-comparable
/// across runs and PRs.
///
/// Two types split the concerns:
///
/// - TelemetrySnapshot: a plain, copyable value — two sorted name->value
///   maps plus (de)serialization. What gets emitted, diffed, and asserted
///   on in tests.
/// - Telemetry: a thread-safe recorder. Worker threads record into
///   task-local recorders; the engine merges their snapshots in task order
///   so aggregate counters are deterministic.
///
/// JSON schema (all values doubles; timers in milliseconds):
///
///   {
///     "counters": {"functions": 14, "rounds": 19, ...},
///     "timers_ms": {"coalesce": 0.51, "color": 1.74, ...}
///   }
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SUPPORT_TELEMETRY_H
#define CCRA_SUPPORT_TELEMETRY_H

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ccra {

/// A copyable sample of telemetry state. Keys are sorted (std::map), so
/// emission order is stable.
struct TelemetrySnapshot {
  std::map<std::string, double> Counters;
  std::map<std::string, double> TimersMs;

  bool empty() const { return Counters.empty() && TimersMs.empty(); }

  double count(const std::string &Name) const;
  double timeMs(const std::string &Name) const;

  /// Adds every counter and timer of \p Other into this snapshot.
  TelemetrySnapshot &operator+=(const TelemetrySnapshot &Other);

  bool operator==(const TelemetrySnapshot &Other) const = default;

  /// Emits the schema documented above. Numbers use max precision, so a
  /// write -> parse round trip reproduces the snapshot exactly.
  void writeJson(std::ostream &OS) const;
  std::string toJson() const;

  /// Emits "kind,name,value" rows (kind is "counter" or "timer_ms") with a
  /// header row.
  void writeCsv(std::ostream &OS) const;

  /// Parses text produced by writeJson/toJson. Returns false (leaving
  /// \p Out in an unspecified state) on malformed input.
  static bool fromJson(const std::string &Text, TelemetrySnapshot &Out);

  /// Returns a copy without the "sched." counter namespace. Counters
  /// outside that namespace are deterministic functions of the allocation
  /// inputs (identical at any Jobs setting and with any cache/scratch
  /// configuration); "sched." counters describe scheduling, cache and
  /// arena occupancy and legitimately vary run to run. Equality assertions
  /// across Jobs settings must compare this view.
  TelemetrySnapshot withoutSchedulingCounters() const;
};

/// A thread-safe telemetry recorder.
class Telemetry {
public:
  Telemetry() = default;

  void addCount(const std::string &Name, double Delta = 1.0);
  /// Raises counter \p Name to \p Value if it is below it. Use for peak /
  /// high-water counters; name them under telemetry::MaxCounterPrefix so
  /// snapshot merging takes the max instead of the sum.
  void noteMax(const std::string &Name, double Value);
  void addTimeMs(const std::string &Name, double Ms);
  /// The same for a C-string name, such as the telemetry:: constants: a
  /// repeat of a recently used name address finds its entry without
  /// building a std::string or walking the map (see SlotCache).
  void addCount(const char *Name, double Delta = 1.0);
  void noteMax(const char *Name, double Value);
  void addTimeMs(const char *Name, double Ms);
  void merge(const TelemetrySnapshot &Other);

  double count(const std::string &Name) const;
  double timeMs(const std::string &Name) const;

  TelemetrySnapshot snapshot() const;
  /// Moves the accumulated data out, leaving this recorder empty. The
  /// serving batch path drains one short-lived recorder per request;
  /// copying the ~50-entry maps there is pure overhead.
  TelemetrySnapshot takeSnapshot();
  void reset();

  /// Adds the elapsed wall-clock time to timer \p Name on destruction.
  /// Null-safe: a null recorder makes the timer a no-op.
  class ScopedTimer {
  public:
    ScopedTimer(Telemetry *T, const char *Name) : T(T), Name(Name) {
      if (T)
        Start = std::chrono::steady_clock::now();
    }
    ~ScopedTimer() {
      if (!T)
        return;
      std::chrono::duration<double, std::milli> Elapsed =
          std::chrono::steady_clock::now() - Start;
      T->addTimeMs(Name, Elapsed.count());
    }
    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Telemetry *T;
    const char *Name;
    std::chrono::steady_clock::time_point Start;
  };

private:
  /// Entries of one of Data's maps by the address of the name they were
  /// last reached with. The engine records about twenty counters and
  /// timers per allocated function under a few dozen constant names (~80
  /// per paper-grid point), so a short linear scan of addresses replaces a
  /// string build and a map walk per record. A hit is confirmed against
  /// the entry's key, so a caller that reuses one buffer for different
  /// names still reaches the right entry. Map nodes never move, so entries
  /// stay valid until Data is replaced.
  class SlotCache {
  public:
    using Map = std::map<std::string, double>;
    double &get(Map &Entries, const char *Name);
    void clear() { Slots.clear(); }

  private:
    static constexpr std::size_t MaxSlots = 64;
    std::vector<std::pair<const char *, Map::iterator>> Slots;
  };

  mutable std::mutex M;
  TelemetrySnapshot Data;
  SlotCache CounterSlots, TimerSlots; ///< guarded by M, like Data
};

/// Canonical names used by the allocation engine, so every reporter (tool,
/// benches, tests) keys on the same strings.
namespace telemetry {
// Counters.
inline constexpr const char *Functions = "functions";
inline constexpr const char *Rounds = "rounds";
inline constexpr const char *SpilledRanges = "spilled_ranges";
inline constexpr const char *VoluntarySpills = "voluntary_spills";
inline constexpr const char *CoalescedMoves = "coalesced_moves";
inline constexpr const char *CalleeRegsPaid = "callee_regs_paid";
inline constexpr const char *Experiments = "experiments";
/// Full liveness dataflow runs during allocation. With the analysis cache
/// and incremental liveness on, at most one per allocation round (usually
/// zero: rounds start from a seeded or incrementally-maintained solution).
inline constexpr const char *LivenessComputes = "liveness_computes";
/// Coalescer passes, each of which rebuilds the live ranges and the
/// interference graph (a coalescer run repeats passes until no copy
/// merges). Every pass either recomputes liveness or updates it
/// incrementally, so the incremental updates are coalesce_passes minus
/// liveness_computes.
inline constexpr const char *CoalescePasses = "coalesce_passes";

// Scheduling/occupancy counters ("sched." namespace): excluded from the
// determinism guarantee — they depend on which thread ran what and on
// cache warm-up order. See TelemetrySnapshot::withoutSchedulingCounters.
inline constexpr const char *SchedPrefix = "sched.";
inline constexpr const char *SchedAnalysisCacheHits =
    "sched.analysis_cache_hits";
inline constexpr const char *SchedAnalysisCacheMisses =
    "sched.analysis_cache_misses";
/// Round-1 coalescing memo lookups (ModuleAnalysisCache::coalesceOutcome):
/// a hit replays recorded merges, a miss coalesces and records them.
inline constexpr const char *SchedAnalysisCacheCoalesceHits =
    "sched.analysis_cache_coalesce_hits";
inline constexpr const char *SchedAnalysisCacheCoalesceMisses =
    "sched.analysis_cache_coalesce_misses";
inline constexpr const char *SchedScratchReuses = "sched.scratch_reuses";
inline constexpr const char *SchedPoolBatches = "sched.pool_batches";
inline constexpr const char *SchedPoolTasks = "sched.pool_tasks";
inline constexpr const char *SchedPoolMaxSlotShare =
    "sched.pool_max_slot_share";

// Allocation hot-path counters ("alloc." namespace). The graph_dense /
// graph_sparse round counts are deterministic; counters under
// MaxCounterPrefix merge by maximum (order-independent) but measure buffer
// *capacity*, which depends on arena reuse order, so they are excluded
// from the determinism guarantee alongside the "sched." namespace.
inline constexpr const char *MaxCounterPrefix = "alloc.peak_";
/// High-water interference-graph footprint across rounds (bytes).
inline constexpr const char *AllocPeakGraphBytes = "alloc.peak_graph_bytes";
/// Rounds colored against a dense (bit-matrix) graph.
inline constexpr const char *AllocGraphDense = "alloc.graph_dense";
/// Rounds colored against a sparse (adjacency-only) graph.
inline constexpr const char *AllocGraphSparse = "alloc.graph_sparse";

// Serving counters ("serve." namespace): the allocation service's
// request/response accounting, exposed over the wire by a STATS request.
// Like "sched.", these describe operational behavior (arrival order, load,
// client speed), not allocation results, so they carry no determinism
// guarantee.
inline constexpr const char *ServeConnections = "serve.connections";
inline constexpr const char *ServeRequests = "serve.requests";
inline constexpr const char *ServeResponsesOk = "serve.responses_ok";
inline constexpr const char *ServeShed = "serve.shed";
inline constexpr const char *ServeDeadlineMissed = "serve.deadline_missed";
inline constexpr const char *ServeMalformed = "serve.malformed";
inline constexpr const char *ServeWorkerFaults = "serve.worker_faults";
inline constexpr const char *ServeDraining = "serve.rejected_draining";
inline constexpr const char *ServeBatches = "serve.batches";
inline constexpr const char *ServeBatchedRequests = "serve.batched_requests";
inline constexpr const char *ServeWriteTimeouts = "serve.write_timeouts";
inline constexpr const char *ServeStatsRequests = "serve.stats_requests";
/// High-water marks (same-recorder noteMax; operational, not merged).
inline constexpr const char *ServePeakQueue = "serve.peak_queue_depth";
inline constexpr const char *ServePeakConnections = "serve.peak_connections";
/// Gauge sampled at STATS time: connections currently registered with the
/// event loop. The companion to ServeConnections (a lifetime total).
inline constexpr const char *ServeOpenConnections = "serve.open_connections";

// Content-addressed allocation cache ("cache." namespace): the serving
// tier's cache telemetry, reported through STATS. Operational like
// "serve." — hit/miss split depends on arrival order, never on allocation
// results (which are deterministic and therefore cacheable in the first
// place).
inline constexpr const char *CacheHits = "cache.hits";
inline constexpr const char *CacheMisses = "cache.misses";
inline constexpr const char *CacheEvictions = "cache.evictions";
inline constexpr const char *CacheBytes = "cache.bytes";
inline constexpr const char *CacheInsertions = "cache.insertions";
inline constexpr const char *CacheModules = "cache.modules";
/// The module tier behind the response cache (service/ModuleTier.h):
/// lookups of parsed modules by their exact wire bytes, and the retained
/// entries' count and byte charge.
inline constexpr const char *CacheModuleHits = "cache.module_hits";
inline constexpr const char *CacheModuleMisses = "cache.module_misses";
inline constexpr const char *CacheModuleEvictions = "cache.module_evictions";
inline constexpr const char *CacheModuleEntries = "cache.module_entries";
inline constexpr const char *CacheModuleBytes = "cache.module_bytes";
/// Round-1 coalescing memo lookups of the module tier's entries, summed
/// over served requests (one per function body of a tier-held module).
inline constexpr const char *CacheModuleCoalesceHits =
    "cache.module_coalesce_hits";
inline constexpr const char *CacheModuleCoalesceMisses =
    "cache.module_coalesce_misses";
/// Heap bytes the retained entries' coalescing memos hold; each entry's
/// is at most a quarter of its charge.
inline constexpr const char *CacheModuleMemoBytes = "cache.module_memo_bytes";

// Phase timers.
inline constexpr const char *CoalescePhase = "coalesce";
inline constexpr const char *BuildRangesPhase = "build_ranges";
inline constexpr const char *BuildGraphPhase = "build_graph";
inline constexpr const char *ReconstructPhase = "reconstruct";
inline constexpr const char *ColorPhase = "color";
inline constexpr const char *SpillInsertPhase = "spill_insert";
inline constexpr const char *MaterializePhase = "materialize";
inline constexpr const char *VerifyPhase = "verify";
/// Simplification inside the color phase (the worklist / reference loop).
inline constexpr const char *AllocSimplifyPhase = "alloc.simplify";
inline constexpr const char *AllocateTotal = "allocate_total";
/// Wall-clock the service's workers spent allocating requests and
/// building their responses (one "batch" per request).
inline constexpr const char *ServeBatchPhase = "serve.batch";
/// Module admission on the worker, ahead of and outside serve.batch: the
/// module-tier lookup, then on a tier hit the clone, otherwise module
/// parse (or binary decode) plus IR verification.
inline constexpr const char *ServeAdmitPhase = "serve.admit";
/// Response assembly inside serve.batch: per-function IR rendering plus the
/// cache-record build (serve.render) and the wire payload encoding
/// (serve.encode). The difference between serve.batch and
/// allocate_total + these two is the engine-setup cost (frequencies and
/// seeds, engine construction, telemetry snapshots).
inline constexpr const char *ServeRenderPhase = "serve.render";
inline constexpr const char *ServeEncodePhase = "serve.encode";
/// Frequency analysis ahead of an allocation that has no shared analysis
/// cache (harness/Experiment.h SourceAllocation).
inline constexpr const char *FreqComputePhase = "freq_compute";
} // namespace telemetry

} // namespace ccra

#endif // CCRA_SUPPORT_TELEMETRY_H
