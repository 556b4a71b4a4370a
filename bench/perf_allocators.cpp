//===- bench/perf_allocators.cpp - Compile-time microbenchmarks -----------===//
//
// google-benchmark timings of the framework phases (liveness, live-range
// construction, graph construction, coalescing) and of whole-module
// allocation per allocator, over randomized programs of increasing size,
// and how the parallel engine scales across functions
// (BM_AllocateModuleJobs).
// Telemetry counters from the engine are surfaced as benchmark counters.
//
//===----------------------------------------------------------------------===//

#include "ccra.h"

#include "analysis/Liveness.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/LiveRange.h"
#include "regalloc/VRegClasses.h"
#include "workloads/RandomProgram.h"
#include "workloads/SpecProxies.h"

#include <benchmark/benchmark.h>

using namespace ccra;

namespace {

RandomProgramParams sizedParams(int64_t Scale) {
  RandomProgramParams Params;
  Params.Seed = 42;
  Params.NumFunctions = 2;
  Params.RegionsPerFunction = static_cast<unsigned>(4 * Scale);
  Params.IntValues = static_cast<unsigned>(4 * Scale);
  Params.FloatValues = static_cast<unsigned>(2 * Scale);
  return Params;
}

void BM_Liveness(benchmark::State &State) {
  auto M = generateRandomProgram(sizedParams(State.range(0)));
  Function *F = M->getEntryFunction();
  for (auto _ : State) {
    (void)_;
    benchmark::DoNotOptimize(Liveness::compute(*F));
  }
}
BENCHMARK(BM_Liveness)->Arg(1)->Arg(2)->Arg(4);

void BM_GraphConstruction(benchmark::State &State) {
  auto M = generateRandomProgram(sizedParams(State.range(0)));
  Function *F = M->getEntryFunction();
  FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
  Liveness LV = Liveness::compute(*F);
  VRegClasses Classes(F->numVRegs());
  LiveRangeSet LRS = LiveRangeSet::build(*F, LV, Freq, Classes);
  for (auto _ : State) {
    (void)_;
    benchmark::DoNotOptimize(InterferenceGraph::build(*F, LV, LRS));
  }
}
BENCHMARK(BM_GraphConstruction)->Arg(1)->Arg(2)->Arg(4);

void allocateWith(benchmark::State &State, const AllocatorOptions &Opts) {
  auto M = generateRandomProgram(sizedParams(2));
  Telemetry T;
  for (auto _ : State) {
    (void)_;
    auto Clone = cloneModule(*M);
    FrequencyInfo Freq =
        FrequencyInfo::compute(*Clone, FrequencyMode::Profile);
    AllocationEngine Engine = EngineBuilder(RegisterConfig(8, 6, 2, 2))
                                  .options(Opts)
                                  .telemetry(&T)
                                  .build();
    benchmark::DoNotOptimize(Engine.allocateModule(*Clone, Freq));
  }
  // Per-iteration allocation telemetry as benchmark counters.
  TelemetrySnapshot Snap = T.snapshot();
  auto PerIteration = benchmark::Counter(
      0, benchmark::Counter::kAvgIterations);
  for (telemetry::Metric Id : {telemetry::Rounds, telemetry::SpilledRanges,
                                telemetry::CoalescedMoves,
                                telemetry::CalleeRegsPaid}) {
    PerIteration.value = Snap.count(Id);
    State.counters[telemetry::info(Id).Name] = PerIteration;
  }
}

void BM_AllocateBase(benchmark::State &State) {
  allocateWith(State, baseChaitinOptions());
}
void BM_AllocateOptimistic(benchmark::State &State) {
  allocateWith(State, optimisticOptions());
}
void BM_AllocateImproved(benchmark::State &State) {
  allocateWith(State, improvedOptions());
}
void BM_AllocatePriority(benchmark::State &State) {
  allocateWith(State, priorityOptions());
}
void BM_AllocateCBH(benchmark::State &State) {
  allocateWith(State, cbhOptions());
}
BENCHMARK(BM_AllocateBase);
BENCHMARK(BM_AllocateOptimistic);
BENCHMARK(BM_AllocateImproved);
BENCHMARK(BM_AllocatePriority);
BENCHMARK(BM_AllocateCBH);

void BM_AllocateModuleJobs(benchmark::State &State) {
  // Scaling of the parallel engine across a many-function module. Jobs=1
  // is the serial baseline; results are bit-identical at every setting
  // (tests/ParallelTest.cpp), so this measures pure wall-clock scaling.
  RandomProgramParams Params;
  Params.Seed = 7;
  Params.NumFunctions = 16;
  Params.RegionsPerFunction = 6;
  Params.IntValues = 10;
  Params.FloatValues = 6;
  auto M = generateRandomProgram(Params);
  unsigned Jobs = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    (void)_;
    auto Clone = cloneModule(*M);
    FrequencyInfo Freq =
        FrequencyInfo::compute(*Clone, FrequencyMode::Profile);
    AllocationEngine Engine = EngineBuilder(RegisterConfig(8, 6, 2, 2))
                                  .options(improvedOptions())
                                  .jobs(Jobs)
                                  .build();
    benchmark::DoNotOptimize(Engine.allocateModule(*Clone, Freq));
  }
  State.SetLabel("jobs=" + std::to_string(Jobs));
}
BENCHMARK(BM_AllocateModuleJobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_AllocateSpecProxy(benchmark::State &State) {
  auto All = buildAllSpecProxies();
  const Module &M = *All[static_cast<size_t>(State.range(0))].second;
  for (auto _ : State) {
    (void)_;
    auto Clone = cloneModule(M);
    FrequencyInfo Freq =
        FrequencyInfo::compute(*Clone, FrequencyMode::Profile);
    AllocationEngine Engine = EngineBuilder(RegisterConfig(9, 7, 3, 3))
                                  .options(improvedOptions())
                                  .build();
    benchmark::DoNotOptimize(Engine.allocateModule(*Clone, Freq));
  }
  State.SetLabel(All[static_cast<size_t>(State.range(0))].first);
}
BENCHMARK(BM_AllocateSpecProxy)->DenseRange(0, 13);

} // namespace

BENCHMARK_MAIN();
