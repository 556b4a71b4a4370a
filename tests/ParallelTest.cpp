//===- tests/ParallelTest.cpp - Thread pool and parallel determinism ------===//
//
// The contract of the parallel allocation engine: allocateModule with any
// Jobs setting produces bit-identical results to the serial path, because
// every task allocates with a private allocator instance and the engine
// reduces per-function results in function order. Plus unit tests of the
// ThreadPool primitive itself.
//
//===----------------------------------------------------------------------===//

#include "ccra.h"
#include "workloads/RandomProgram.h"
#include "workloads/SpecProxies.h"

#include <atomic>
#include <gtest/gtest.h>
#include <latch>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace ccra;

namespace {

// --- ThreadPool ---------------------------------------------------------

TEST(ThreadPool, SizeIsRequestedThreadCount) {
  ThreadPool Pool(3);
  EXPECT_EQ(Pool.size(), 3u);
  ThreadPool Auto(0);
  EXPECT_EQ(Auto.size(), ThreadPool::defaultParallelism());
  EXPECT_GE(ThreadPool::defaultParallelism(), 1u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  constexpr std::size_t Count = 1000;
  std::vector<std::atomic<unsigned>> Hits(Count);
  Pool.parallelForEach(Count, [&](std::size_t I) { Hits[I]++; });
  for (std::size_t I = 0; I < Count; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool Pool(2);
  Pool.parallelForEach(0, [&](std::size_t) { FAIL() << "body ran"; });
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool Pool(2);
  std::atomic<std::size_t> Total{0};
  for (int Batch = 0; Batch < 10; ++Batch)
    Pool.parallelForEach(100, [&](std::size_t) { Total++; });
  EXPECT_EQ(Total.load(), 1000u);
}

TEST(ThreadPool, PropagatesBodyException) {
  ThreadPool Pool(3);
  std::atomic<unsigned> Ran{0};
  EXPECT_THROW(Pool.parallelForEach(64,
                                    [&](std::size_t I) {
                                      Ran++;
                                      if (I == 7)
                                        throw std::runtime_error("boom");
                                    }),
               std::runtime_error);
  EXPECT_GE(Ran.load(), 1u);
  // The pool must still be usable after a failed batch.
  std::atomic<unsigned> After{0};
  Pool.parallelForEach(16, [&](std::size_t) { After++; });
  EXPECT_EQ(After.load(), 16u);
}

TEST(ThreadPool, SingleThreadPoolStillRunsAllTasks) {
  ThreadPool Pool(1);
  std::set<std::size_t> Seen;
  Pool.parallelForEach(20, [&](std::size_t I) { Seen.insert(I); });
  EXPECT_EQ(Seen.size(), 20u);
}

TEST(ThreadPool, NestedSubmissionCompletesOnSharedWorkers) {
  // A task may submit its own batch to the pool it runs on (the engine
  // does exactly this when a shared grid pool carries its function
  // fan-out). The submitter drains its own batch, so this cannot deadlock
  // even when every worker is busy.
  ThreadPool Pool(3);
  std::atomic<unsigned> Inner{0};
  Pool.parallelForEach(8, [&](std::size_t) {
    Pool.parallelForEach(8, [&](std::size_t) { Inner++; });
  });
  EXPECT_EQ(Inner.load(), 64u);
  ThreadPool::Stats S = Pool.stats();
  EXPECT_EQ(S.Batches, 9u);
  EXPECT_EQ(S.Tasks, 8u + 64u);
}

TEST(ThreadPool, SlotsStayWithinPoolSize) {
  ThreadPool Pool(4);
  std::vector<unsigned> SlotOfTask(200, ~0u);
  Pool.parallelForEachSlot(SlotOfTask.size(),
                           [&](std::size_t I, unsigned Slot) {
                             SlotOfTask[I] = Slot;
                           });
  for (unsigned Slot : SlotOfTask)
    EXPECT_LT(Slot, Pool.size());
  ThreadPool::Stats S = Pool.stats();
  std::uint64_t Sum = 0;
  for (std::uint64_t N : S.TasksPerSlot)
    Sum += N;
  EXPECT_EQ(Sum, S.Tasks);
}

// --- Parallel allocation determinism ------------------------------------

RandomProgramParams manyFunctionParams(uint64_t Seed) {
  RandomProgramParams Params;
  Params.Seed = Seed;
  Params.NumFunctions = 7;
  Params.RegionsPerFunction = 5;
  Params.IntValues = 10;
  Params.FloatValues = 5;
  return Params;
}

ModuleAllocationResult allocateClone(const Module &M, unsigned Jobs,
                                     const AllocatorOptions &Opts,
                                     std::unique_ptr<Module> &CloneOut,
                                     Telemetry *T = nullptr) {
  CloneOut = cloneModule(M);
  FrequencyInfo Freq = FrequencyInfo::compute(*CloneOut, FrequencyMode::Profile);
  AllocationEngine Engine = EngineBuilder(RegisterConfig(6, 4, 2, 2))
                                .options(Opts)
                                .jobs(Jobs)
                                .telemetry(T)
                                .build();
  return Engine.allocateModule(*CloneOut, Freq);
}

void expectIdenticalAllocations(const Module &Serial,
                                const ModuleAllocationResult &A,
                                const Module &Parallel,
                                const ModuleAllocationResult &B) {
  // Costs must match bit for bit, not just approximately: the parallel
  // reduction runs in function order exactly like the serial loop.
  EXPECT_EQ(A.Totals.Spill, B.Totals.Spill);
  EXPECT_EQ(A.Totals.CallerSave, B.Totals.CallerSave);
  EXPECT_EQ(A.Totals.CalleeSave, B.Totals.CalleeSave);
  EXPECT_EQ(A.Totals.Shuffle, B.Totals.Shuffle);

  ASSERT_EQ(A.PerFunction.size(), B.PerFunction.size());
  auto SerialIt = Serial.functions().begin();
  auto ParallelIt = Parallel.functions().begin();
  for (; SerialIt != Serial.functions().end(); ++SerialIt, ++ParallelIt) {
    const Function *FA = SerialIt->get();
    const Function *FB = ParallelIt->get();
    ASSERT_EQ(FA->getName(), FB->getName());
    if (FA->isDeclaration())
      continue;
    const FunctionAllocation &RA = A.PerFunction.at(FA);
    const FunctionAllocation &RB = B.PerFunction.at(FB);
    EXPECT_EQ(RA.Rounds, RB.Rounds);
    EXPECT_EQ(RA.SpilledRanges, RB.SpilledRanges);
    EXPECT_EQ(RA.VoluntarySpills, RB.VoluntarySpills);
    EXPECT_EQ(RA.CoalescedMoves, RB.CoalescedMoves);
    EXPECT_EQ(RA.CalleeRegsPaid, RB.CalleeRegsPaid);
    EXPECT_EQ(RA.Costs.total(), RB.Costs.total());
    ASSERT_EQ(RA.VRegLocations.size(), RB.VRegLocations.size())
        << "@" << FA->getName();
    for (std::size_t VReg = 0; VReg < RA.VRegLocations.size(); ++VReg) {
      ASSERT_EQ(RA.VRegLocations[VReg].has_value(),
                RB.VRegLocations[VReg].has_value());
      if (!RA.VRegLocations[VReg])
        continue;
      const Location &LocA = *RA.VRegLocations[VReg];
      const Location &LocB = *RB.VRegLocations[VReg];
      EXPECT_EQ(LocA.isRegister(), LocB.isRegister());
      if (LocA.isRegister() && LocB.isRegister()) {
        EXPECT_EQ(LocA.Reg, LocB.Reg);
      }
    }
  }
}

TEST(ParallelAllocation, JobsSettingDoesNotChangeResults) {
  for (uint64_t Seed : {11u, 22u, 33u}) {
    std::unique_ptr<Module> M = generateRandomProgram(manyFunctionParams(Seed));
    for (const AllocatorOptions &Opts :
         {improvedOptions(), baseChaitinOptions(), cbhOptions()}) {
      std::unique_ptr<Module> SerialClone, ParallelClone;
      ModuleAllocationResult Serial =
          allocateClone(*M, 1, Opts, SerialClone);
      ModuleAllocationResult Parallel =
          allocateClone(*M, 4, Opts, ParallelClone);
      expectIdenticalAllocations(*SerialClone, Serial, *ParallelClone,
                                 Parallel);
    }
  }
}

TEST(ParallelAllocation, HardwareJobsMatchesSerial) {
  std::unique_ptr<Module> M = generateRandomProgram(manyFunctionParams(77));
  std::unique_ptr<Module> SerialClone, ParallelClone;
  ModuleAllocationResult Serial =
      allocateClone(*M, 1, improvedOptions(), SerialClone);
  ModuleAllocationResult Parallel =
      allocateClone(*M, 0, improvedOptions(), ParallelClone); // 0 = hardware
  expectIdenticalAllocations(*SerialClone, Serial, *ParallelClone, Parallel);
}

TEST(ParallelAllocation, UncolorableDiagnosticMatchesSerialAtAnyJobs) {
  // Under (1,1,0,0) every body of li is uncolorable. The serial loop stops
  // at the first body; the parallel path, which starts the biggest body
  // first, must name that same body.
  std::unique_ptr<Module> M = buildSpecProxy("li");
  auto Diagnostic = [&](unsigned Jobs) {
    return SourceAllocation(*M, nullptr)
        .run(RegisterConfig(1, 1, 0, 0), improvedOptions(),
             FrequencyMode::Profile, Jobs, nullptr)
        .Diagnostic;
  };
  const std::string Serial = Diagnostic(1);
  ASSERT_NE(Serial.find("cannot color"), std::string::npos) << Serial;
  for (unsigned Jobs : {2u, 4u, 0u})
    EXPECT_EQ(Serial, Diagnostic(Jobs)) << "jobs " << Jobs;
}

TEST(ParallelAllocation, TelemetryCountersMatchSerial) {
  // Timers are wall-clock and may differ; every counter outside the
  // "sched." namespace is a deterministic function of the allocation and
  // must not. "sched." counters (scratch reuses, pool stats) describe the
  // execution schedule and legitimately vary with Jobs.
  std::unique_ptr<Module> M = generateRandomProgram(manyFunctionParams(5));
  Telemetry SerialT, ParallelT;
  std::unique_ptr<Module> C1, C2;
  allocateClone(*M, 1, improvedOptions(), C1, &SerialT);
  allocateClone(*M, 3, improvedOptions(), C2, &ParallelT);
  EXPECT_EQ(SerialT.snapshot().withoutSchedulingCounters(),
            ParallelT.snapshot().withoutSchedulingCounters());
  EXPECT_GT(SerialT.count(telemetry::Functions), 0.0);
  // Both paths exercised their scratch arenas.
  EXPECT_GT(SerialT.count(telemetry::SchedScratchReuses), 0.0);
  EXPECT_GT(ParallelT.count(telemetry::SchedScratchReuses), 0.0);
}

TEST(ParallelAllocation, OptimizationsOnOffBitIdenticalAtAnyJobs) {
  // The throughput features — function-level parallelism, the shared
  // analysis cache with its baseline-liveness seeds, and the shared pool —
  // are pure compute-sharing: cached, pooled and parallel allocations must
  // be bit-identical to plain serial runs.
  std::unique_ptr<Module> M = generateRandomProgram(manyFunctionParams(91));
  AllocatorOptions Opts = improvedOptions();
  const RegisterConfig Config(6, 4, 2, 2);

  std::unique_ptr<Module> RefClone;
  ModuleAllocationResult Ref = allocateClone(*M, 1, Opts, RefClone);
  ExperimentRun Plain =
      runExperiment({M.get(), Config, Opts, FrequencyMode::Profile, 1});
  for (unsigned Jobs : {1u, 8u}) {
    std::unique_ptr<Module> ParClone;
    ModuleAllocationResult Par = allocateClone(*M, Jobs, Opts, ParClone);
    expectIdenticalAllocations(*RefClone, Ref, *ParClone, Par);

    // Through the harness, with the shared analysis cache and pool.
    ModuleAnalysisCache Cache;
    ThreadPool Pool(Jobs);
    ExperimentRun Cached = runExperiment(
        {M.get(), Config, Opts, FrequencyMode::Profile, Jobs}, &Cache, &Pool);
    EXPECT_EQ(Cached.Result.Costs.total(), Plain.Result.Costs.total());
    EXPECT_EQ(Cached.Result.SpilledRanges, Plain.Result.SpilledRanges);
    EXPECT_EQ(Cached.Result.CoalescedMoves, Plain.Result.CoalescedMoves);
    EXPECT_EQ(Cached.Result.Cycles, Plain.Result.Cycles);
    EXPECT_GT(Cache.stats().misses(), 0u);
  }
}

TEST(ParallelAllocation, ExperimentGridIsDeterministic) {
  std::unique_ptr<Module> M = generateRandomProgram(manyFunctionParams(42));
  std::vector<ExperimentSpec> Specs;
  for (const RegisterConfig &Config :
       {RegisterConfig(6, 4, 0, 0), RegisterConfig(8, 6, 2, 2)})
    for (unsigned Jobs : {1u, 2u})
      Specs.push_back({M.get(), Config, improvedOptions(),
                       FrequencyMode::Profile, Jobs});

  std::vector<ExperimentRun> Serial = runExperiments(Specs, 1);
  std::vector<ExperimentRun> Parallel = runExperiments(Specs, 4);
  ASSERT_EQ(Serial.size(), Specs.size());
  ASSERT_EQ(Parallel.size(), Specs.size());
  for (std::size_t I = 0; I < Specs.size(); ++I) {
    EXPECT_EQ(Serial[I].Result.Costs.total(), Parallel[I].Result.Costs.total());
    EXPECT_EQ(Serial[I].Result.Cycles, Parallel[I].Result.Cycles);
    EXPECT_EQ(Serial[I].Result.SpilledRanges, Parallel[I].Result.SpilledRanges);
    EXPECT_EQ(Serial[I].Telemetry.withoutSchedulingCounters(),
              Parallel[I].Telemetry.withoutSchedulingCounters());
  }
  // The two specs that differ only in per-experiment Jobs agree too.
  EXPECT_EQ(Serial[0].Result.Costs.total(), Serial[1].Result.Costs.total());
  EXPECT_EQ(Serial[2].Result.Costs.total(), Serial[3].Result.Costs.total());
}

// --- The round-1 coalescing memo under contention ------------------------

TEST(AnalysisCacheConcurrency, RacingPublishersAllSeeTheFirstOutcome) {
  // Every thread publishes its own (distinguishable) outcome for one key,
  // then reads the key back. Exactly one outcome is stored, and every
  // publisher and reader gets that same entry.
  constexpr unsigned Threads = 8;
  ModuleAnalysisCache Cache;
  Module Source("m");
  Source.createFunction("f");
  const CoalesceKey Key{&Source, 0, 12, 8, false};
  std::vector<const CoalesceOutcome *> Published(Threads), Read(Threads);
  std::latch Start(Threads);
  std::vector<std::thread> Workers;
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([&, I] {
      CoalesceOutcome Mine;
      Mine.Merges = {{VirtReg(I), VirtReg(I + 1)}};
      Mine.Passes = I + 2;
      Start.arrive_and_wait();
      Published[I] = Cache.publishCoalesceOutcome(Key, std::move(Mine));
      Read[I] = Cache.coalesceOutcome(Key);
    });
  for (std::thread &W : Workers)
    W.join();

  const CoalesceOutcome *Winner = Published[0];
  ASSERT_NE(Winner, nullptr);
  for (unsigned I = 0; I < Threads; ++I) {
    EXPECT_EQ(Published[I], Winner);
    EXPECT_EQ(Read[I], Winner);
  }
  ASSERT_EQ(Winner->Merges.size(), 1u);
  unsigned Id = Winner->Merges[0].first.Id;
  EXPECT_EQ(Winner->Merges[0].second.Id, Id + 1);
  EXPECT_EQ(Winner->Passes, Id + 2);
  ModuleAnalysisCache::Stats S = Cache.stats();
  EXPECT_EQ(S.CoalesceHits, Threads);
  EXPECT_EQ(S.CoalesceMisses, 0u);
}

TEST(AnalysisCacheConcurrency, RacingAllocationsOnOneBudgetAreBitIdentical) {
  // Allocations of one module under one register budget race on every
  // function's memo key: they start together, several miss and coalesce,
  // the first publisher wins. Every allocation, the losers' included, must
  // equal its cache-less reference.
  std::unique_ptr<Module> M = generateRandomProgram(manyFunctionParams(63));
  const RegisterConfig Config(6, 4, 2, 2);
  const std::vector<AllocatorOptions> Arms = {
      improvedOptions(), improvedOptions(), baseChaitinOptions(),
      cbhOptions(),      priorityOptions(), improvedOptimisticOptions()};
  const unsigned Threads = static_cast<unsigned>(Arms.size());

  std::vector<std::unique_ptr<Module>> RefClones(Threads);
  std::vector<ModuleAllocationResult> Refs(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Refs[I] = allocateClone(*M, 1, Arms[I], RefClones[I]);

  ModuleAnalysisCache Cache;
  std::vector<std::unique_ptr<SourceAllocation>> Jobs(Threads);
  std::vector<ModuleAllocationResult> Results(Threads);
  std::latch Start(Threads);
  std::vector<std::thread> Workers;
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([&, I] {
      Jobs[I] = std::make_unique<SourceAllocation>(*M, &Cache);
      Telemetry T;
      Start.arrive_and_wait();
      Results[I] = Jobs[I]->run(Config, Arms[I], FrequencyMode::Profile,
                                /*Jobs=*/1, &T)
                       .Result;
    });
  for (std::thread &W : Workers)
    W.join();

  unsigned Bodies = 0;
  for (unsigned FnIdx = 0; FnIdx < M->functions().size(); ++FnIdx) {
    if (M->functions()[FnIdx]->isDeclaration())
      continue;
    ++Bodies;
    EXPECT_NE(Cache.coalesceOutcome({M.get(), FnIdx, 8, 6, false}), nullptr)
        << "function " << FnIdx << " was never published";
  }
  std::uint64_t Lookups = 0;
  for (unsigned I = 0; I < Threads; ++I) {
    SCOPED_TRACE("thread " + std::to_string(I));
    expectIdenticalAllocations(*RefClones[I], Refs[I], Jobs[I]->module(),
                               Results[I]);
    std::string RefIr, Ir;
    printModule(*RefClones[I], RefIr);
    printModule(Jobs[I]->module(), Ir);
    EXPECT_EQ(RefIr, Ir);
    Lookups += Jobs[I]->coalesceHits() + Jobs[I]->coalesceMisses();
  }
  EXPECT_EQ(Lookups, std::uint64_t{Threads} * Bodies);
}

} // namespace
