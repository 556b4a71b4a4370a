//===- harness/Experiment.h - Reproduction experiment driver ---*- C++ -*-===//
///
/// \file
/// Runs one point of the paper's evaluation grid — (workload, register
/// configuration, allocator, frequency source) — on a clone of the
/// workload, and the Table 4 execution-time model. Every bench binary is a
/// thin loop over this. The step inside a grid point (clone, shared
/// analyses, engine) is SourceAllocation, which the allocation service's
/// workers run too.
///
/// A grid point is described by an ExperimentSpec and produces an
/// ExperimentRun: the cost/statistics summary plus the telemetry the
/// allocation recorded (per-phase timers and counters). runExperiments
/// fans a whole grid across ONE shared thread pool that also serves each
/// spec's per-function fan-out (Spec.Jobs) — nested batches on the shared
/// pool, never nested pools — and shares one ModuleAnalysisCache across
/// the grid so frequencies and baseline liveness are computed once per
/// (module, mode) / (module, function) instead of once per grid point.
/// Neither sharing changes any result bit.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_HARNESS_EXPERIMENT_H
#define CCRA_HARNESS_EXPERIMENT_H

#include "analysis/Frequency.h"
#include "regalloc/AllocationResult.h"
#include "regalloc/AllocatorOptions.h"
#include "support/Telemetry.h"
#include "target/MachineDescription.h"

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
  /// Estimated dynamic cycles of the allocated program (Table 4 model):
  /// one cycle per instruction plus one extra per memory operation.
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

/// One allocation of a module: the step the experiment grid and the
/// allocation service share. Construction picks the module the engine
/// mutates (a private clone of a shared source, or a caller's module
/// allocated in place); run() gets its frequencies and round-1 liveness
/// seeds, builds the engine and allocates.
class SourceAllocation {
public:
  /// Allocates a clone of \p Source, which is never modified. \p Cache,
  /// when given, is keyed by \p Source: it supplies the frequencies
  /// (rekeyed onto the clone) and the baseline-liveness seeds. Pure
  /// compute-sharing: results are bit-identical with or without it.
  SourceAllocation(const Module &Source, ModuleAnalysisCache *Cache);
  /// Allocates \p InPlace itself: no clone, no shared analyses.
  explicit SourceAllocation(Module &InPlace);

  SourceAllocation(const SourceAllocation &) = delete;
  SourceAllocation &operator=(const SourceAllocation &) = delete;

  /// Allocates the module once, recording the engine's telemetry into
  /// \p T (plus freq_compute when frequencies are computed here, without
  /// a cache). \p Pool, when given, carries the Jobs fan-out instead of a
  /// private pool.
  ModuleAllocationResult run(const RegisterConfig &Config,
                             const AllocatorOptions &Options,
                             FrequencyMode Mode, unsigned Jobs, Telemetry &T,
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

private:
  const Module *Source;
  ModuleAnalysisCache *Cache = nullptr;
  std::uint64_t CacheHits = 0, CacheMisses = 0;
  std::unique_ptr<Module> Clone;
  Module *Work;
  FrequencyInfo Freq;
};

/// Runs one grid point. Results are identical for any Spec.Jobs setting.
/// \p Cache, when given, supplies shared frequencies (rekeyed onto the
/// run's private clone) and baseline-liveness seeds; \p Pool, when given,
/// carries the spec's function fan-out instead of a private pool. Both are
/// pure compute-sharing: results are bit-identical with or without them.
ExperimentRun runExperiment(const ExperimentSpec &Spec,
                            ModuleAnalysisCache *Cache,
                            ThreadPool *Pool = nullptr);
inline ExperimentRun runExperiment(const ExperimentSpec &Spec) {
  return runExperiment(Spec, nullptr, nullptr);
}

/// Runs a grid of experiments, \p Jobs specs concurrently (1 = serial,
/// 0 = one per hardware thread). Output order matches input order and
/// every run is bit-identical to running its spec alone. One analysis
/// cache and (when anything is parallel) one thread pool are shared by
/// the whole grid; \p GridTelemetry, if non-null, receives the grid-level
/// scheduling counters (cache hit/miss totals, pool batch/task counts,
/// the busiest slot's share of tasks).
std::vector<ExperimentRun> runExperiments(const std::vector<ExperimentSpec> &Specs,
                                          unsigned Jobs = 1,
                                          TelemetrySnapshot *GridTelemetry = nullptr);

/// \deprecated Positional shim over the ExperimentSpec overload; drops the
/// telemetry half of the result.
ExperimentResult runExperiment(const Module &M, const RegisterConfig &Config,
                               const AllocatorOptions &Opts,
                               FrequencyMode Mode);

/// The Table 4 cycle model, exposed for tests: weighted dynamic instruction
/// count with memory operations (including all overhead loads/stores)
/// costing one extra cycle.
double estimateDynamicCycles(const Module &M, const FrequencyInfo &Freq);

} // namespace ccra

#endif // CCRA_HARNESS_EXPERIMENT_H
