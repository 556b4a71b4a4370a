//===- tests/CoalesceMemoTest.cpp - Recorded round-1 coalescing -----------===//
//
// The shared analysis cache records each function's round-1 coalescing per
// register budget, and later allocations replay it (Coalescer::replay).
// These tests hold the replay to the full coalescer on every function of
// the paper's population (the 20 C corpus programs and the 14 SPEC
// proxies), and the memoized grid to cache-less allocation point by point.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisCache.h"
#include "analysis/Frequency.h"
#include "analysis/Liveness.h"
#include "frontend/Frontend.h"
#include "harness/Experiment.h"
#include "ir/Cloner.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "regalloc/Coalescer.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/LiveRange.h"
#include "regalloc/VRegClasses.h"
#include "support/Hash.h"
#include "support/ThreadPool.h"
#include "target/MachineDescription.h"
#include "workloads/SpecProxies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>

using namespace ccra;

namespace {

/// The population: every examples/corpus_c program (path order), then the
/// SPEC proxies (listing order). Built once per test binary.
const std::vector<std::unique_ptr<Module>> &population() {
  static const std::vector<std::unique_ptr<Module>> Programs = [] {
    std::vector<std::string> Paths;
    for (const auto &Entry : std::filesystem::directory_iterator(
             CCRA_SOURCE_DIR "/examples/corpus_c"))
      if (Entry.path().extension() == ".c")
        Paths.push_back(Entry.path().string());
    std::sort(Paths.begin(), Paths.end());
    std::vector<std::unique_ptr<Module>> Out;
    for (const std::string &Path : Paths) {
      CompileResult R = Frontend::compileFile(Path);
      EXPECT_TRUE(R.ok()) << Path;
      if (R.ok())
        Out.push_back(std::move(R.M));
    }
    for (const std::string &Name : specProxyNames())
      Out.push_back(buildSpecProxy(Name));
    return Out;
  }();
  return Programs;
}

/// One configuration per distinct (Int, Float) register total of the
/// standard sweep: the memo's budgets.
std::vector<RegisterConfig> budgets() {
  std::vector<RegisterConfig> Out;
  std::set<std::pair<unsigned, unsigned>> Seen;
  for (const RegisterConfig &C : standardConfigSweep())
    if (Seen.insert({C.totalCount(RegBank::Int), C.totalCount(RegBank::Float)})
            .second)
      Out.push_back(C);
  return Out;
}

TEST(CoalesceReplay, PopulationHasFifteenBudgets) {
  EXPECT_EQ(population().size(), 34u);
  EXPECT_EQ(standardConfigSweep().size(), 17u);
  EXPECT_EQ(budgets().size(), 15u);
}

/// Everything one coalescer outcome leaves behind for the allocator.
struct Coalesced {
  std::unique_ptr<Module> Clone;
  Function *F = nullptr;
  VRegClasses Classes;
  Liveness LV;
  LiveRangeSet LRS;
  InterferenceGraph IG;
  CoalesceStats Stats;
};

void expectSameOutcome(const Coalesced &Run, const Coalesced &Replay,
                       const std::string &Where) {
  SCOPED_TRACE(Where);
  EXPECT_EQ(Run.Stats.CoalescedMoves, Replay.Stats.CoalescedMoves);
  EXPECT_EQ(Run.Stats.Passes, Replay.Stats.Passes);
  EXPECT_EQ(Run.Stats.LivenessComputes, Replay.Stats.LivenessComputes);
  ASSERT_EQ(Run.Classes.size(), Replay.Classes.size());
  for (unsigned V = 0; V < Run.Classes.size(); ++V)
    ASSERT_EQ(Run.Classes.find(VirtReg(V)), Replay.Classes.find(VirtReg(V)))
        << "root of %" << V;
  std::string RunText, ReplayText;
  printFunction(*Run.F, RunText);
  printFunction(*Replay.F, ReplayText);
  ASSERT_EQ(RunText, ReplayText);
  ASSERT_TRUE(Run.LV == Replay.LV) << "final liveness differs";

  ASSERT_EQ(Run.LRS.numRanges(), Replay.LRS.numRanges());
  for (unsigned R = 0; R < Run.LRS.numRanges(); ++R) {
    EXPECT_EQ(Run.LRS.range(R).Root, Replay.LRS.range(R).Root);
    EXPECT_EQ(Run.LRS.range(R).WeightedRefs, Replay.LRS.range(R).WeightedRefs);
    EXPECT_EQ(Run.LRS.range(R).CallerSaveCost,
              Replay.LRS.range(R).CallerSaveCost);
  }
  ASSERT_EQ(Run.IG.numEdges(), Replay.IG.numEdges());
  for (unsigned N = 0; N < Run.IG.numNodes(); ++N) {
    auto A = Run.IG.neighbors(N), B = Replay.IG.neighbors(N);
    ASSERT_TRUE(std::equal(A.begin(), A.end(), B.begin(), B.end()))
        << "neighbors of range " << N;
  }
}

TEST(CoalesceReplay, MatchesTheFullRunOnEveryPopulationFunctionAndBudget) {
  // The replay starts where round 1 does: a pristine clone, identity
  // classes and the baseline liveness. Both coalescing modes.
  unsigned Compared = 0, WithMerges = 0;
  for (const auto &Source : population()) {
    const auto &Fns = Source->functions();
    std::vector<Liveness> Baselines(Fns.size());
    for (std::size_t I = 0; I < Fns.size(); ++I)
      if (!Fns[I]->isDeclaration())
        Baselines[I] = Liveness::compute(*Fns[I]);
    FrequencyInfo SourceFreq =
        FrequencyInfo::compute(*Source, FrequencyMode::Profile);

    for (const RegisterConfig &Config : budgets())
      for (bool Aggressive : {false, true}) {
        MachineDescription MD(Config);
        Coalesced Run, Replay;
        Run.Clone = cloneModule(*Source);
        Replay.Clone = cloneModule(*Source);
        FrequencyInfo Freq = SourceFreq.remappedTo(*Source, *Run.Clone);
        FrequencyInfo ReplayFreq =
            SourceFreq.remappedTo(*Source, *Replay.Clone);
        for (std::size_t I = 0; I < Fns.size(); ++I) {
          if (Fns[I]->isDeclaration())
            continue;
          Run.F = Run.Clone->functions()[I].get();
          Replay.F = Replay.Clone->functions()[I].get();
          Run.Classes = VRegClasses(Run.F->numVRegs());
          Replay.Classes = VRegClasses(Replay.F->numVRegs());
          Run.LV = Baselines[I];
          Replay.LV = Baselines[I];

          CoalesceOutcome Outcome;
          CoalesceRequest Req;
          Req.Aggressive = Aggressive;
          Req.SeededLV = true;
          Req.MergeLog = &Outcome.Merges;
          Run.Stats = Coalescer::run(*Run.F, Run.Classes, MD, Freq, Run.LV,
                                     Req, Run.LRS, Run.IG);
          ASSERT_LT(Run.Stats.Passes, Coalescer::MaxPasses);
          ASSERT_EQ(Outcome.Merges.size(), Run.Stats.CoalescedMoves);
          Outcome.Passes = Run.Stats.Passes;
          Outcome.LivenessComputes = Run.Stats.LivenessComputes;

          CoalesceRequest ReplayReq;
          ReplayReq.Aggressive = Aggressive;
          ReplayReq.SeededLV = true;
          Replay.Stats = Coalescer::replay(*Replay.F, Replay.Classes, MD,
                                           ReplayFreq, Replay.LV, Outcome,
                                           ReplayReq, Replay.LRS, Replay.IG);
          std::ostringstream Where;
          Where << Source->getName() << " @" << Run.F->getName() << " at ("
                << Config.totalCount(RegBank::Int) << ","
                << Config.totalCount(RegBank::Float) << ")"
                << (Aggressive ? " aggressive" : "");
          expectSameOutcome(Run, Replay, Where.str());
          if (HasFatalFailure())
            return;
          ++Compared;
          WithMerges += Outcome.Merges.empty() ? 0 : 1;
        }
      }
  }
  // The population exercises the replay, not just empty outcomes.
  EXPECT_GT(Compared, 1000u);
  EXPECT_GT(WithMerges, Compared / 4);
}

/// What one grid point produced, reduced to comparable values: the summary,
/// the deterministic telemetry counters, and digests of the per-function
/// records and the allocated IR text.
struct PointCapture {
  ExperimentResult Result;
  TelemetrySnapshot Counters; ///< the deterministic rows only
  std::uint64_t RecordsHash = 0;
  std::uint64_t IrHash = 0;
  unsigned Bodies = 0;
};

void appendBits(std::string &Out, const void *Data, std::size_t Len) {
  Out.append(static_cast<const char *>(Data), Len);
}

/// Exact serialization of every FunctionAllocation field, in module order.
std::uint64_t recordsHash(const Module &M, const ModuleAllocationResult &A,
                          unsigned &Bodies) {
  std::string Bytes;
  Bodies = 0;
  for (const auto &F : M.functions()) {
    auto It = A.PerFunction.find(F.get());
    if (It == A.PerFunction.end())
      continue;
    ++Bodies;
    const FunctionAllocation &FA = It->second;
    Bytes += F->getName();
    for (double C : {FA.Costs.Spill, FA.Costs.CallerSave, FA.Costs.CalleeSave,
                     FA.Costs.Shuffle})
      appendBits(Bytes, &C, sizeof C);
    for (unsigned N : {FA.Rounds, FA.SpilledRanges, FA.VoluntarySpills,
                       FA.CoalescedMoves, FA.CalleeRegsPaid})
      appendBits(Bytes, &N, sizeof N);
    for (const std::optional<Location> &L : FA.VRegLocations) {
      char Tag = !L ? 'n' : L->isMemory() ? 'm' : 'r';
      Bytes += Tag;
      if (L && L->isRegister()) {
        unsigned Reg[2] = {static_cast<unsigned>(L->Reg.Bank), L->Reg.Index};
        appendBits(Bytes, Reg, sizeof Reg);
      }
    }
    for (const std::string &E : FA.VerifyErrors)
      Bytes += E;
  }
  return hash64(Bytes);
}

void observe(PointCapture &P, const Module &M,
             const ModuleAllocationResult &A) {
  P.RecordsHash = recordsHash(M, A, P.Bodies);
  std::string Ir;
  printModule(M, Ir);
  P.IrHash = hash64(Ir);
}

void finish(PointCapture &P, const ExperimentRun &Run) {
  P.Result = Run.Result;
  P.Counters = Run.Telemetry.withoutSchedulingCounters();
}

/// Compares a cached point with its cache-less reference. Every
/// deterministic counter must match, except that a cache-less round 1
/// computes each body's liveness (liveness_computes) where the cache seeds
/// it: exactly one compute per body apart.
void expectSamePoint(const PointCapture &Ref, const PointCapture &Got,
                     const std::string &Where) {
  SCOPED_TRACE(Where);
  const ExperimentResult &A = Ref.Result, &B = Got.Result;
  EXPECT_EQ(A.Costs.Spill, B.Costs.Spill);
  EXPECT_EQ(A.Costs.CallerSave, B.Costs.CallerSave);
  EXPECT_EQ(A.Costs.CalleeSave, B.Costs.CalleeSave);
  EXPECT_EQ(A.Costs.Shuffle, B.Costs.Shuffle);
  EXPECT_EQ(A.SpilledRanges, B.SpilledRanges);
  EXPECT_EQ(A.VoluntarySpills, B.VoluntarySpills);
  EXPECT_EQ(A.CoalescedMoves, B.CoalescedMoves);
  EXPECT_EQ(A.CalleeRegsPaid, B.CalleeRegsPaid);
  EXPECT_EQ(A.MaxRounds, B.MaxRounds);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(Ref.RecordsHash, Got.RecordsHash) << "per-function records";
  EXPECT_EQ(Ref.IrHash, Got.IrHash) << "allocated IR text";
  ASSERT_EQ(Ref.Bodies, Got.Bodies);

  TelemetrySnapshot RefCounters = Ref.Counters;
  TelemetrySnapshot GotCounters = Got.Counters;
  EXPECT_EQ(RefCounters.count(telemetry::LivenessComputes),
            GotCounters.count(telemetry::LivenessComputes) + Ref.Bodies);
  RefCounters.set(telemetry::LivenessComputes, 0);
  GotCounters.set(telemetry::LivenessComputes, 0);
  EXPECT_TRUE(RefCounters.has(telemetry::CoalescePasses));
  EXPECT_TRUE(RefCounters.has(telemetry::CoalescedMoves));
  EXPECT_EQ(RefCounters, GotCounters);
}

std::string describe(const ExperimentSpec &S, std::size_t Index) {
  std::ostringstream OS;
  OS << "point " << Index << ": " << S.Program->getName() << " "
     << S.Config.label() << " " << S.Options.canonicalKey() << " mode "
     << (S.Mode == FrequencyMode::Profile ? "profile" : "static");
  return OS.str();
}

/// Cache-less references, computed on a pool of \p Jobs workers.
std::vector<PointCapture> cachelessReferences(
    const std::vector<ExperimentSpec> &Specs, unsigned Jobs) {
  std::vector<PointCapture> Ref(Specs.size());
  ThreadPool Pool(Jobs);
  Pool.parallelForEach(Specs.size(), [&](std::size_t I) {
    ExperimentRun Run = runExperiment(
        Specs[I], nullptr, nullptr,
        [&](const ExperimentSpec &, const Module &M,
            const ModuleAllocationResult &A) { observe(Ref[I], M, A); });
    finish(Ref[I], Run);
  });
  return Ref;
}

TEST(CoalesceMemo, FullPopulationGridMatchesCachelessAllocation) {
  // The paper grid's population: 34 programs x 17 configurations x 5
  // allocators x 2 frequency modes, through runExperiments (Jobs=4, one
  // shared cache). 91% of the points' round-1 coalescings are replays.
  const std::vector<AllocatorOptions> Arms = {
      improvedOptions(), baseChaitinOptions(), cbhOptions(), priorityOptions(),
      improvedOptimisticOptions()};
  std::vector<ExperimentSpec> Specs;
  for (const auto &M : population())
    for (const RegisterConfig &Config : standardConfigSweep())
      for (const AllocatorOptions &Options : Arms)
        for (FrequencyMode Mode :
             {FrequencyMode::Profile, FrequencyMode::Static})
          Specs.push_back({M.get(), Config, Options, Mode, 1});
  ASSERT_EQ(Specs.size(), 5780u);

  std::vector<PointCapture> Ref = cachelessReferences(Specs, 4);
  std::vector<PointCapture> Got(Specs.size());
  TelemetrySnapshot Grid;
  std::vector<ExperimentRun> Runs = runExperiments(
      Specs, 4, &Grid,
      [&](const ExperimentSpec &S, const Module &M,
          const ModuleAllocationResult &A) {
        observe(Got[&S - Specs.data()], M, A);
      });
  for (std::size_t I = 0; I < Specs.size(); ++I) {
    finish(Got[I], Runs[I]);
    expectSamePoint(Ref[I], Got[I], describe(Specs[I], I));
    if (HasFailure())
      return;
  }

  // One lookup per body per point. Each (program, body, budget) misses at
  // least once; points that look up before the first publish of their key
  // miss too, and at most one point per worker (or the submitting thread)
  // can be that early, so at least half the lookups replay.
  unsigned BodiesPerBudget = 0;
  for (const auto &M : population())
    for (const auto &F : M->functions())
      BodiesPerBudget += F->isDeclaration() ? 0 : 1;
  ASSERT_TRUE(Grid.has(telemetry::SchedAnalysisCacheCoalesceHits));
  ASSERT_TRUE(Grid.has(telemetry::SchedAnalysisCacheCoalesceMisses));
  double Hits = Grid.count(telemetry::SchedAnalysisCacheCoalesceHits);
  double Misses = Grid.count(telemetry::SchedAnalysisCacheCoalesceMisses);
  EXPECT_EQ(Hits + Misses, 10.0 * 17 * BodiesPerBudget);
  EXPECT_GE(Misses, 15.0 * BodiesPerBudget);
  EXPECT_LE(Misses, 5 * 15.0 * BodiesPerBudget);
}

TEST(CoalesceMemo, PerfGridPointsMatchPlainRuns) {
  // perf_grid's 51 points (three proxies x 17 configurations, improved
  // allocator, Spec.Jobs = 2): runExperiments with its shared cache and
  // pool must equal plain per-spec runExperiment, IR text and
  // deterministic counters included.
  std::vector<std::unique_ptr<Module>> Programs;
  for (const char *Name : {"gcc", "espresso", "fpppp"})
    Programs.push_back(buildSpecProxy(Name));
  AllocatorOptions Opts = improvedOptions();
  Opts.Verify = false;
  std::vector<ExperimentSpec> Specs;
  for (const auto &M : Programs)
    for (const RegisterConfig &Config : standardConfigSweep())
      Specs.push_back({M.get(), Config, Opts, FrequencyMode::Profile, 2});
  ASSERT_EQ(Specs.size(), 51u);

  std::vector<PointCapture> Ref(Specs.size());
  for (std::size_t I = 0; I < Specs.size(); ++I) {
    ExperimentRun Run =
        runExperiment(Specs[I], nullptr, nullptr,
                      [&](const ExperimentSpec &, const Module &M,
                          const ModuleAllocationResult &A) {
                        observe(Ref[I], M, A);
                      });
    finish(Ref[I], Run);
  }
  std::vector<PointCapture> Got(Specs.size());
  std::vector<ExperimentRun> Runs = runExperiments(
      Specs, 4, nullptr,
      [&](const ExperimentSpec &S, const Module &M,
          const ModuleAllocationResult &A) {
        observe(Got[&S - Specs.data()], M, A);
      });
  for (std::size_t I = 0; I < Specs.size(); ++I) {
    finish(Got[I], Runs[I]);
    expectSamePoint(Ref[I], Got[I], describe(Specs[I], I));
  }
}

} // namespace
