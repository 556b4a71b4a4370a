//===- harness/Experiment.h - Reproduction experiment driver ---*- C++ -*-===//
///
/// \file
/// Runs one point of the paper's evaluation grid — (workload, register
/// configuration, allocator, frequency source) — on a clone of the
/// workload, and the Table 4 execution-time model. bench/paper_tables runs
/// every reproduced table through runExperiments.
///
/// SourceAllocation is the one way to request an allocation: the grid
/// points, allocation batches, the service's workers, the oracle lattice
/// and the command-line tools all allocate through it (frequencies,
/// shared analyses, engine). It is also the one place that catches
/// UncolorableError: a configuration too small for the module comes back
/// as an AllocationOutcome carrying the diagnostic. runExperiment and
/// runAllocationBatch, whose interfaces report failure by exception,
/// throw it again with the same text.
///
/// A grid point is described by an ExperimentSpec and produces an
/// ExperimentRun: the cost/statistics summary plus the telemetry the
/// allocation recorded (per-phase timers and counters). runExperiments
/// fans a whole grid across ONE shared thread pool that also serves each
/// spec's per-function fan-out (Spec.Jobs) — nested batches on the shared
/// pool, never nested pools — and shares one ModuleAnalysisCache across
/// the grid so frequencies, baseline liveness and round-1 coalescing are
/// computed once per (module, mode) / (module, function) / (module,
/// function, register budget) instead of once per grid point. Neither
/// sharing changes any result bit.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_HARNESS_EXPERIMENT_H
#define CCRA_HARNESS_EXPERIMENT_H

#include "analysis/Frequency.h"
#include "regalloc/AllocationResult.h"
#include "regalloc/AllocatorOptions.h"
#include "support/Telemetry.h"
#include "target/MachineDescription.h"

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace ccra {

class Module;
class ModuleAnalysisCache;
class ThreadPool;

struct ExperimentResult {
  CostBreakdown Costs;
  unsigned SpilledRanges = 0;
  unsigned VoluntarySpills = 0;
  unsigned CoalescedMoves = 0;
  unsigned CalleeRegsPaid = 0;
  unsigned MaxRounds = 0;
  /// Estimated dynamic cycles of the allocated program, under the Table 4
  /// model of estimateDynamicCycles.
  double Cycles = 0.0;
};

/// One evaluation grid point. The program is never modified: each run
/// allocates a private clone.
struct ExperimentSpec {
  const Module *Program = nullptr;
  RegisterConfig Config;
  AllocatorOptions Options;
  FrequencyMode Mode = FrequencyMode::Profile;
  /// Function allocations run concurrently within this experiment
  /// (AllocatorOptions::Jobs semantics: 1 = serial, 0 = hardware).
  unsigned Jobs = 1;
};

/// What one grid point produced: the summary plus everything the engine's
/// telemetry recorded while allocating (phase timers, counters).
struct ExperimentRun {
  ExperimentResult Result;
  TelemetrySnapshot Telemetry;
};

/// What one SourceAllocation::run produced: the engine's result, or, when
/// the register configuration cannot color some instruction's operands,
/// the UncolorableError diagnostic (naming the function and the
/// configuration). The input is at fault, not the allocator: callers
/// answer it like malformed input.
struct AllocationOutcome {
  ModuleAllocationResult Result; ///< empty when Diagnostic is set
  std::string Diagnostic;        ///< empty on success
  bool ok() const { return Diagnostic.empty(); }
  /// The result, for callers that report failure by exception: throws
  /// UncolorableError carrying Diagnostic when there is one.
  ModuleAllocationResult takeOrThrow();
};

/// One allocation of a module: the step every caller shares. Construction
/// picks the module the engine mutates (a private clone of a shared
/// source, or a caller's module allocated in place); run() gets its
/// frequencies and round-1 liveness seeds, builds the engine and
/// allocates.
class SourceAllocation {
public:
  /// Allocates a clone of \p Source, which is never modified. \p Cache,
  /// when given, is keyed by \p Source: it supplies the frequencies
  /// (rekeyed onto the clone), the baseline-liveness seeds and each
  /// function's recorded round-1 coalescing under the run's register
  /// budget (recording it on a miss). Pure compute-sharing: results are
  /// bit-identical with or without it.
  SourceAllocation(const Module &Source, ModuleAnalysisCache *Cache);
  /// Allocates \p InPlace itself: no clone, no shared analyses.
  explicit SourceAllocation(Module &InPlace);

  SourceAllocation(const SourceAllocation &) = delete;
  SourceAllocation &operator=(const SourceAllocation &) = delete;

  /// Allocates the module once, recording the engine's telemetry into
  /// \p T (plus freq_compute when frequencies are computed here, without
  /// a cache). \p Pool, when given, carries the Jobs fan-out instead of a
  /// private pool. An uncolorable configuration returns its diagnostic
  /// and leaves module() partly allocated.
  AllocationOutcome run(const RegisterConfig &Config,
                        const AllocatorOptions &Options, FrequencyMode Mode,
                        unsigned Jobs, Telemetry &T,
                        ThreadPool *Pool = nullptr);

  /// The allocated module and its frequencies (complete after run()).
  Module &module() { return *Work; }
  const FrequencyInfo &frequencies() const { return Freq; }
  /// How many of run()'s analysis-cache lookups hit, and how many
  /// computed their analysis. Scheduling-dependent, so the grid reports
  /// them under "sched."; the service leaves them out of its responses,
  /// whose telemetry every response-cache hit copies and encodes again.
  std::uint64_t cacheHits() const { return CacheHits; }
  std::uint64_t cacheMisses() const { return CacheMisses; }
  /// How many function bodies replayed a recorded round-1 coalescing, and
  /// how many coalesced (and recorded). Scheduling-dependent, like the
  /// counts above; the daemon adds them to STATS, never to a response.
  std::uint64_t coalesceHits() const { return CoalesceHits.load(); }
  std::uint64_t coalesceMisses() const { return CoalesceMisses.load(); }

private:
  const Module *Source;
  ModuleAnalysisCache *Cache = nullptr;
  std::uint64_t CacheHits = 0, CacheMisses = 0;
  /// Counted from the engine's tasks, concurrently under Jobs > 1.
  std::atomic<std::uint64_t> CoalesceHits = 0, CoalesceMisses = 0;
  std::unique_ptr<Module> Clone;
  Module *Work;
  FrequencyInfo Freq;
};

/// Sees one grid point's allocated clone and the engine's full result
/// (per-function records included) before the run discards them; called
/// from the thread that ran the point. \p Spec is the very spec the point
/// ran (under runExperiments, an element of its Specs, so its address
/// gives the point's index). Equivalence tests compare these.
using AllocationObserver = std::function<void(
    const ExperimentSpec &Spec, const Module &Allocated,
    const ModuleAllocationResult &Alloc)>;

/// Runs one grid point. Results are identical for any Spec.Jobs setting.
/// \p Cache, when given, supplies shared frequencies (rekeyed onto the
/// run's private clone), baseline-liveness seeds and recorded round-1
/// coalescing; \p Pool, when given, carries the spec's function fan-out
/// instead of a private pool. Both are pure compute-sharing: results are
/// bit-identical with or without them. Throws UncolorableError with
/// SourceAllocation's diagnostic when Spec.Config cannot color the program.
ExperimentRun runExperiment(const ExperimentSpec &Spec,
                            ModuleAnalysisCache *Cache,
                            ThreadPool *Pool = nullptr,
                            const AllocationObserver &Observe = nullptr);
inline ExperimentRun runExperiment(const ExperimentSpec &Spec) {
  return runExperiment(Spec, nullptr, nullptr);
}

/// Runs a grid of experiments, \p Jobs specs concurrently (1 = serial,
/// 0 = one per hardware thread). Output order matches input order and
/// every run is bit-identical to running its spec alone. One analysis
/// cache and (when anything is parallel) one thread pool are shared by
/// the whole grid; \p GridTelemetry, if non-null, receives the grid-level
/// scheduling counters (cache hit/miss totals, pool batch/task counts,
/// the busiest slot's share of tasks, the coalescing memo's hits and
/// misses). \p Observe, if set, sees each point's allocation.
std::vector<ExperimentRun>
runExperiments(const std::vector<ExperimentSpec> &Specs, unsigned Jobs = 1,
               TelemetrySnapshot *GridTelemetry = nullptr,
               const AllocationObserver &Observe = nullptr);

/// The Table 4 cycle model: every instruction's cycle cost weighted by its
/// block's frequency. The costs loosely follow the MIPS R3000 the paper
/// measured on (DECstation 5000): 5 cycles for a multiply and 20 for a
/// divide (integer or floating point), 2 for a call, 2 for a memory access
/// (every overhead load and store included), and 1 for anything else.
double estimateDynamicCycles(const Module &M, const FrequencyInfo &Freq);

/// The cost table ccra_alloc and ccra_cc print for an allocation of \p M:
/// one row per defined function (spill, caller-save and callee-save
/// overhead, their total, rounds, spilled ranges), then a TOTAL row.
void printCostTable(const Module &M, const ModuleAllocationResult &Alloc,
                    std::ostream &OS);

} // namespace ccra

#endif // CCRA_HARNESS_EXPERIMENT_H
