//===- harness/Experiment.cpp ---------------------------------------------===//

#include "harness/Experiment.h"

#include "analysis/AnalysisCache.h"
#include "core/EngineBuilder.h"
#include "ir/Cloner.h"
#include "ir/Module.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace ccra;

SourceAllocation::SourceAllocation(const Module &Source,
                                   ModuleAnalysisCache *Cache)
    : Source(&Source), Cache(Cache), Clone(cloneModule(Source)),
      Work(Clone.get()) {}

SourceAllocation::SourceAllocation(Module &InPlace)
    : Source(&InPlace), Work(&InPlace) {}

ModuleAllocationResult AllocationOutcome::takeOrThrow() {
  if (!ok())
    throw UncolorableError(Diagnostic);
  return std::move(Result);
}

AllocationOutcome SourceAllocation::run(const RegisterConfig &Config,
                                        const AllocatorOptions &Options,
                                        FrequencyMode Mode, unsigned Jobs,
                                        Telemetry *T, ThreadPool *Pool) {
  // With a cache the analyses run (at most) once per source module across
  // every allocation of it: frequencies transfer to the clone by position
  // (same doubles), baseline liveness seeds round 1 by block-id identity.
  if (Cache) {
    bool Hit = false;
    const FrequencyInfo &Shared = Cache->frequencies(*Source, Mode, &Hit);
    ++(Hit ? CacheHits : CacheMisses);
    Freq = Shared.remappedTo(*Source, *Work);
  } else {
    Telemetry::ScopedTimer Timer(T, telemetry::FreqComputePhase);
    Freq = FrequencyInfo::compute(*Work, Mode);
  }

  AnalysisSeeds Seeds;
  const AnalysisSeeds *SeedsPtr = nullptr;
  if (Cache) {
    std::vector<unsigned> FnIdx;
    const auto &Fns = Source->functions();
    for (unsigned I = 0; I < Fns.size(); ++I) {
      if (Fns[I]->isDeclaration())
        continue;
      bool Hit = false;
      Seeds.BaselineLiveness.push_back(
          &Cache->baselineLiveness(*Source, I, &Hit));
      ++(Hit ? CacheHits : CacheMisses);
      FnIdx.push_back(I);
    }
    // Round-1 coalescing depends on the register totals and the aggressive
    // flag alone (analysis/AnalysisCache.h), so the memo serves every
    // allocator, mode and caller/callee split of one budget. Each body
    // looks up just before its round 1, so a point that trails another on
    // the same budget by one body's work already replays.
    auto KeyOf = [this, &Config, &Options,
                  FnIdx = std::move(FnIdx)](std::size_t Body) {
      return CoalesceKey{Source, FnIdx[Body], Config.totalCount(RegBank::Int),
                         Config.totalCount(RegBank::Float),
                         Options.AggressiveCoalescing};
    };
    Seeds.Lookup = [this, KeyOf](std::size_t Body) {
      const CoalesceOutcome *Hit = Cache->coalesceOutcome(KeyOf(Body));
      ++(Hit ? CoalesceHits : CoalesceMisses);
      return Hit;
    };
    Seeds.Publish = [this, KeyOf](std::size_t Body, CoalesceOutcome Outcome) {
      Cache->publishCoalesceOutcome(KeyOf(Body), std::move(Outcome));
    };
    SeedsPtr = &Seeds;
  }

  AllocationEngine Engine = EngineBuilder(Config)
                                .options(Options)
                                .jobs(Jobs)
                                .telemetry(T)
                                .pool(Pool)
                                .build();
  AllocationOutcome Out;
  try {
    Out.Result = Engine.allocateModule(*Work, Freq, SeedsPtr);
  } catch (const UncolorableError &E) {
    Out.Diagnostic = E.what();
  }
  return Out;
}

ExperimentRun ccra::runExperiment(const ExperimentSpec &Spec,
                                  ModuleAnalysisCache *Cache,
                                  ThreadPool *Pool,
                                  const AllocationObserver &Observe) {
  assert(Spec.Program && "experiment needs a program");
  ExperimentRun Run;

  SourceAllocation Job(*Spec.Program, Cache);
  Telemetry T;
  ModuleAllocationResult Alloc =
      Job.run(Spec.Config, Spec.Options, Spec.Mode, Spec.Jobs, &T, Pool)
          .takeOrThrow();

  Run.Result.Costs = Alloc.Totals;
  for (const auto &[F, FA] : Alloc.PerFunction) {
    (void)F;
    Run.Result.SpilledRanges += FA.SpilledRanges;
    Run.Result.VoluntarySpills += FA.VoluntarySpills;
    Run.Result.CoalescedMoves += FA.CoalescedMoves;
    Run.Result.CalleeRegsPaid += FA.CalleeRegsPaid;
    Run.Result.MaxRounds = std::max(Run.Result.MaxRounds, FA.Rounds);
  }
  Run.Result.Cycles = estimateDynamicCycles(Job.module(), Job.frequencies());
  if (Observe)
    Observe(Spec, Job.module(), Alloc);

  if (Cache) {
    T.addCount(telemetry::SchedAnalysisCacheHits,
               static_cast<double>(Job.cacheHits()));
    T.addCount(telemetry::SchedAnalysisCacheMisses,
               static_cast<double>(Job.cacheMisses()));
  }
  T.addCount(telemetry::Experiments);
  Run.Telemetry = T.snapshot();
  return Run;
}

std::vector<ExperimentRun>
ccra::runExperiments(const std::vector<ExperimentSpec> &Specs, unsigned Jobs,
                     TelemetrySnapshot *GridTelemetry,
                     const AllocationObserver &Observe) {
  std::vector<ExperimentRun> Runs(Specs.size());
  if (Jobs == 0)
    Jobs = ThreadPool::defaultParallelism();
  Jobs = static_cast<unsigned>(
      std::min<std::size_t>(Jobs, Specs.size() ? Specs.size() : 1));

  // One analysis cache for the whole grid (specs over the same program and
  // mode share one FrequencyInfo and one baseline liveness per function),
  // and one pool wide enough for the largest parallelism any level asks
  // for. Engines submit their function batches to this same pool — nested
  // batches, not nested pools — so grid x module parallelism can never
  // oversubscribe the machine beyond the pool's width.
  ModuleAnalysisCache Cache;
  unsigned Width = Jobs;
  for (const ExperimentSpec &S : Specs)
    Width = std::max(Width,
                     S.Jobs == 0 ? ThreadPool::defaultParallelism() : S.Jobs);

  std::optional<ThreadPool> Pool;
  if (Width > 1)
    Pool.emplace(Width);
  ThreadPool *P = Pool ? &*Pool : nullptr;

  auto RunPoint = [&](std::size_t I) {
    Runs[I] = runExperiment(Specs[I], &Cache, P, Observe);
  };
  if (Jobs <= 1) {
    for (std::size_t I = 0; I < Specs.size(); ++I)
      RunPoint(I);
  } else {
    // Each grid point clones its program and owns its telemetry; results
    // land at their spec's index. The cache serializes only first
    // computation of a shared analysis.
    P->parallelForEach(Specs.size(), RunPoint);
  }

  if (GridTelemetry) {
    Telemetry T;
    ModuleAnalysisCache::Stats CS = Cache.stats();
    T.addCount(telemetry::SchedAnalysisCacheHits,
               static_cast<double>(CS.hits()));
    T.addCount(telemetry::SchedAnalysisCacheMisses,
               static_cast<double>(CS.misses()));
    T.addCount(telemetry::SchedAnalysisCacheCoalesceHits,
               static_cast<double>(CS.CoalesceHits));
    T.addCount(telemetry::SchedAnalysisCacheCoalesceMisses,
               static_cast<double>(CS.CoalesceMisses));
    if (Pool) {
      ThreadPool::Stats PS = Pool->stats();
      T.addCount(telemetry::SchedPoolBatches, static_cast<double>(PS.Batches));
      T.addCount(telemetry::SchedPoolTasks, static_cast<double>(PS.Tasks));
      std::uint64_t Busiest = 0;
      for (std::uint64_t N : PS.TasksPerSlot)
        Busiest = std::max(Busiest, N);
      if (PS.Tasks > 0)
        T.addCount(telemetry::SchedPoolMaxSlotShare,
                   static_cast<double>(Busiest) /
                       static_cast<double>(PS.Tasks));
    }
    *GridTelemetry = T.snapshot();
  }
  return Runs;
}

/// Per-instruction cycle costs of the Table 4 model (see
/// estimateDynamicCycles in harness/Experiment.h).
static double instructionCycles(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Mul:
  case Opcode::FMul:
    return 5.0;
  case Opcode::Div:
  case Opcode::FDiv:
    return 20.0;
  case Opcode::Call:
    return 2.0;
  default:
    return I.isMemory() ? 2.0 : 1.0;
  }
}

double ccra::estimateDynamicCycles(const Module &M,
                                   const FrequencyInfo &Freq) {
  double Cycles = 0.0;
  for (const auto &F : M.functions()) {
    for (const auto &BB : F->blocks()) {
      double BlockFreq = Freq.blockFrequency(*BB);
      double PerIteration = 0.0;
      for (const Instruction &I : BB->instructions())
        PerIteration += instructionCycles(I);
      Cycles += BlockFreq * PerIteration;
    }
  }
  return Cycles;
}

void ccra::printCostTable(const Module &M, const ModuleAllocationResult &Alloc,
                          std::ostream &OS) {
  TextTable Table;
  Table.setHeader({"function", "spill", "caller_sv", "callee_sv", "total",
                   "rounds", "spilled"});
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    const FunctionAllocation &FA = Alloc.PerFunction.at(F.get());
    Table.addRow({"@" + F->getName(), TextTable::formatCount(FA.Costs.Spill),
                  TextTable::formatCount(FA.Costs.CallerSave),
                  TextTable::formatCount(FA.Costs.CalleeSave),
                  TextTable::formatCount(FA.Costs.total()),
                  std::to_string(FA.Rounds),
                  std::to_string(FA.SpilledRanges)});
  }
  Table.addRow({"TOTAL", TextTable::formatCount(Alloc.Totals.Spill),
                TextTable::formatCount(Alloc.Totals.CallerSave),
                TextTable::formatCount(Alloc.Totals.CalleeSave),
                TextTable::formatCount(Alloc.Totals.total()), "", ""});
  Table.print(OS);
}
