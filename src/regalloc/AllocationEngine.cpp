//===- regalloc/AllocationEngine.cpp --------------------------------------===//

#include "regalloc/AllocationEngine.h"

#include "analysis/AnalysisCache.h"
#include "analysis/Frequency.h"
#include "ir/Module.h"
#include "regalloc/AllocationScratch.h"
#include "regalloc/AllocationVerifier.h"
#include "regalloc/Coalescer.h"
#include "regalloc/CostAccounting.h"
#include "regalloc/OverheadMaterializer.h"
#include "regalloc/SpillCodeInserter.h"
#include "regalloc/VRegClasses.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <optional>

using namespace ccra;

AllocationEngine::AllocationEngine(MachineDescription MD,
                                   AllocatorOptions Opts,
                                   AllocatorFactory Factory)
    : MD(MD), Opts(Opts), Factory(std::move(Factory)) {
  assert(this->Factory && "engine needs an allocator factory");
  Allocator = this->Factory(this->Opts);
  assert(Allocator && "factory returned no allocator");
}

namespace {

/// Safety cap on spill-and-retry rounds.
constexpr unsigned MaxRounds = 64;

} // namespace

FunctionAllocation
AllocationEngine::allocateFunction(Function &F,
                                   const FrequencyInfo &Freq) const {
  AllocationScratch Scratch;
  return allocateWith(*Allocator, F, Freq, Telem, /*Seeds=*/nullptr, 0,
                      Scratch);
}

FunctionAllocation
AllocationEngine::allocateWith(RegAllocBase &Alloc, Function &F,
                               const FrequencyInfo &Freq, Telemetry *T,
                               const AnalysisSeeds *Seeds, std::size_t Body,
                               AllocationScratch &Scratch) const {
  FunctionAllocation Out;
  if (F.isDeclaration())
    return Out;

  Telemetry::ScopedTimer TotalTimer(T, telemetry::AllocateTotal);

  VRegClasses Classes(F.numVRegs());
  std::vector<PhysReg> RefusedCalleeRegs;

  // Liveness seed for the next coalescing round: the shared baseline at
  // round 1 (copied — the cached original stays pristine), the solution
  // spill code insertion patched at every later round.
  std::optional<Liveness> CarriedLV;
  const Liveness *SeedLV = Seeds ? Seeds->BaselineLiveness[Body] : nullptr;
  if (SeedLV)
    CarriedLV = *SeedLV;
  // Round 1's recorded coalescing to replay, or else whether to record it.
  // Both need the baseline seed.
  const CoalesceOutcome *Memo =
      SeedLV && Seeds->Lookup ? Seeds->Lookup(Body) : nullptr;
  const bool Record = SeedLV && !Memo && Seeds->Publish;
  unsigned LivenessComputes = 0, CoalescePasses = 0;

  for (unsigned Round = 1; Round <= MaxRounds; ++Round) {
    Out.Rounds = Round;

    AllocationContext Ctx{F,          MD, Freq, Liveness(),
                          LiveRangeSet(), InterferenceGraph(),
                          Freq.entryFrequency(F), {}};
    Ctx.T = T;
    // The coalescer's final pass builds the live-range set and graph the
    // allocator needs, so no rebuild follows it.
    {
      Telemetry::ScopedTimer Timer(T, telemetry::CoalescePhase);
      CoalesceRequest Req;
      Req.Aggressive = Opts.AggressiveCoalescing;
      Req.SeededLV = CarriedLV.has_value();
      Req.Scratch = &Scratch;
      Req.T = T;
      if (CarriedLV) {
        Ctx.LV = std::move(*CarriedLV);
        CarriedLV.reset();
      }
      CoalesceOutcome Recorded;
      if (Round == 1 && Record)
        Req.MergeLog = &Recorded.Merges;
      CoalesceStats CS =
          Round == 1 && Memo
              ? Coalescer::replay(F, Classes, MD, Freq, Ctx.LV, *Memo, Req,
                                  Ctx.LRS, Ctx.IG)
              : Coalescer::run(F, Classes, MD, Freq, Ctx.LV, Req, Ctx.LRS,
                               Ctx.IG);
      if (Req.MergeLog && CS.Passes < Coalescer::MaxPasses) {
        Recorded.Passes = CS.Passes;
        Recorded.LivenessComputes = CS.LivenessComputes;
        Seeds->Publish(Body, std::move(Recorded));
      }
      Out.CoalescedMoves += CS.CoalescedMoves;
      LivenessComputes += CS.LivenessComputes;
      CoalescePasses += CS.Passes;
    }
    Classes.grow(F.numVRegs());
    Ctx.RefusedCalleeRegs = RefusedCalleeRegs;
    if (T) {
      T->noteMax(telemetry::AllocPeakGraphBytes,
                 static_cast<double>(Ctx.IG.memoryBytes()));
      T->addCount(Ctx.IG.activeRep() == GraphRep::Dense
                      ? telemetry::AllocGraphDense
                      : telemetry::AllocGraphSparse);
    }

    RoundResult RR;
    {
      Telemetry::ScopedTimer Timer(T, telemetry::ColorPhase);
      Alloc.runRound(Ctx, RR);
    }
    RefusedCalleeRegs.insert(RefusedCalleeRegs.end(),
                             RR.NewlyRefusedCalleeRegs.begin(),
                             RR.NewlyRefusedCalleeRegs.end());
    assert(RR.Assignment.size() == Ctx.LRS.numRanges() &&
           "allocator did not decide every live range");
    Out.VoluntarySpills += RR.VoluntarySpills;

    // Collect the member registers of every spilled live range.
    std::vector<std::vector<VirtReg>> SpilledClasses;
    std::vector<int> &SpillIndexOfRange =
        Scratch.spillIndexOfRange(Ctx.LRS.numRanges());
    for (unsigned I = 0; I < Ctx.LRS.numRanges(); ++I) {
      if (!RR.Assignment[I].isMemory())
        continue;
      assert(!Ctx.LRS.range(I).NoSpill && "reload temporary spilled");
      SpillIndexOfRange[I] = static_cast<int>(SpilledClasses.size());
      SpilledClasses.emplace_back();
    }
    if (!SpilledClasses.empty()) {
      Out.VRegLocations.resize(F.numVRegs());
      for (unsigned V = 0; V < F.numVRegs(); ++V) {
        int RangeId = Ctx.LRS.rangeIdOf(VirtReg(V));
        if (RangeId < 0 || SpillIndexOfRange[RangeId] < 0)
          continue;
        SpilledClasses[SpillIndexOfRange[RangeId]].push_back(VirtReg(V));
        Out.VRegLocations[V] = Location::inMemory();
      }
      Out.SpilledRanges += static_cast<unsigned>(SpilledClasses.size());

      // The next round rebuilds the graph from scratch, so this round's
      // graph is garbage — return its buffers to the arena. Its liveness
      // survives, patched by the spill rewrite, as that round's seed.
      Ctx.IG.recycle(Scratch);
      CarriedLV = std::move(Ctx.LV);
      {
        Telemetry::ScopedTimer Timer(T, telemetry::SpillInsertPhase);
        SpillCodeInserter::run(F, SpilledClasses, &*CarriedLV);
      }
      continue;
    }

    // Converged: record locations, materialize the call-cost overhead,
    // account, verify.
    Out.VRegLocations.resize(F.numVRegs());
    for (unsigned V = 0; V < F.numVRegs(); ++V) {
      int RangeId = Ctx.LRS.rangeIdOf(VirtReg(V));
      if (RangeId >= 0)
        Out.VRegLocations[V] = RR.Assignment[RangeId];
    }

    Out.Costs = computeAnalyticCost(Ctx, RR);
    Out.CalleeRegsPaid = static_cast<unsigned>(
        OverheadMaterializer::paidCalleeRegs(Ctx, RR).size());
    if (Opts.MaterializeSaveRestore) {
      Telemetry::ScopedTimer Timer(T, telemetry::MaterializePhase);
      OverheadMaterializer::run(Ctx, RR);
    }

    if (Opts.Verify) {
      Telemetry::ScopedTimer Timer(T, telemetry::VerifyPhase);
      AllocationVerifyReport Report =
          verifyAllocation(Ctx, RR, Opts.MaterializeSaveRestore);
      if (!Report.ok()) {
        if (Opts.VerifyReportOnly) {
          Out.VerifyErrors = std::move(Report.Errors);
        } else {
          for (const std::string &Message : Report.Errors)
            std::fprintf(stderr, "allocation verifier: %s\n",
                         Message.c_str());
          std::abort();
        }
      }
    }

    if (T) {
      T->addCount(telemetry::Functions);
      T->addCount(telemetry::Rounds, Out.Rounds);
      T->addCount(telemetry::SpilledRanges, Out.SpilledRanges);
      T->addCount(telemetry::VoluntarySpills, Out.VoluntarySpills);
      T->addCount(telemetry::CoalescedMoves, Out.CoalescedMoves);
      T->addCount(telemetry::CalleeRegsPaid, Out.CalleeRegsPaid);
      T->addCount(telemetry::LivenessComputes, LivenessComputes);
      T->addCount(telemetry::CoalescePasses, CoalescePasses);
    }
    // Converged: the graph dies with the context — donate its capacity to
    // the next function sharing this arena.
    Ctx.IG.recycle(Scratch);
    return Out;
  }

  assert(false && "register allocation did not converge within MaxRounds");
  return Out;
}

ModuleAllocationResult
AllocationEngine::allocateModule(Module &M, const FrequencyInfo &Freq,
                                 const AnalysisSeeds *Seeds) const {
  std::vector<Function *> Bodies;
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      Bodies.push_back(F.get());
  assert((!Seeds || Seeds->BaselineLiveness.size() == Bodies.size()) &&
         "one baseline seed per function body");

  unsigned Jobs = Opts.Jobs == 0 ? ThreadPool::defaultParallelism()
                                 : Opts.Jobs;
  // One function cannot be split.
  Jobs = static_cast<unsigned>(
      std::min<std::size_t>(Jobs, Bodies.size() ? Bodies.size() : 1));

  ModuleAllocationResult Result;
  if (Jobs <= 1) {
    AllocationScratch Scratch;
    for (std::size_t I = 0; I < Bodies.size(); ++I) {
      FunctionAllocation FA = allocateWith(*Allocator, *Bodies[I], Freq,
                                           Telem, Seeds, I, Scratch);
      Result.Totals += FA.Costs;
      Result.PerFunction[Bodies[I]] = std::move(FA);
    }
    if (Telem)
      Telem->addCount(telemetry::SchedScratchReuses,
                      static_cast<double>(Scratch.reuses()));
    return Result;
  }

  // Parallel path: one task per function, each with a private allocator
  // and a task-local telemetry recorder. The reduction below walks tasks
  // in function order, so totals accumulate in exactly the serial order
  // (bit-identical results) and telemetry merges deterministically.
  //
  // Tasks are handed out biggest-function-first: the pool's shared counter
  // serves indices in order, so fronting the heavy functions prevents the
  // long-tail stall where one of them starts last and every other worker
  // idles behind it. Outputs are indexed by body position, so the order
  // cannot change any result.
  std::vector<std::size_t> Sizes(Bodies.size(), 0);
  for (std::size_t I = 0; I < Bodies.size(); ++I)
    for (const auto &BB : Bodies[I]->blocks())
      Sizes[I] += BB->instructions().size();
  std::vector<std::size_t> Order(Bodies.size());
  std::iota(Order.begin(), Order.end(), std::size_t{0});
  std::stable_sort(Order.begin(), Order.end(),
                   [&](std::size_t A, std::size_t B) {
                     return Sizes[A] > Sizes[B];
                   });

  // A shared external pool serves this batch with its own workers (nested
  // submission is safe — the submitter drains its own batch); otherwise
  // spawn a private pool of the requested width.
  std::optional<ThreadPool> Owned;
  ThreadPool *P = Pool;
  if (!P) {
    Owned.emplace(Jobs);
    P = &*Owned;
  }

  std::vector<FunctionAllocation> PerTask(Bodies.size());
  std::vector<Telemetry> TaskTelemetry(Telem ? Bodies.size() : 0);
  // One scratch arena per worker slot. Slots are unique among the threads
  // executing one batch, so arenas are never shared between concurrent
  // tasks even on a pool serving several engines at once.
  std::vector<AllocationScratch> Scratches(P->size());
  // The serial loop stops at the first uncolorable body in function order.
  // Here the lowest-indexed failing body's diagnostic is thrown, whichever
  // task failed first, so the message depends neither on Jobs nor on
  // scheduling.
  std::mutex FailureMutex;
  std::size_t FailedBody = Bodies.size();
  std::string Failure;
  P->parallelForEachSlot(
      Order.size(), [&](std::size_t TaskIdx, unsigned Slot) {
        std::size_t I = Order[TaskIdx];
        std::unique_ptr<RegAllocBase> TaskAlloc = Factory(Opts);
        try {
          PerTask[I] = allocateWith(*TaskAlloc, *Bodies[I], Freq,
                                    Telem ? &TaskTelemetry[I] : nullptr,
                                    Seeds, I, Scratches[Slot]);
        } catch (const UncolorableError &E) {
          std::lock_guard<std::mutex> Lock(FailureMutex);
          if (I < FailedBody) {
            FailedBody = I;
            Failure = E.what();
          }
        }
      });
  if (FailedBody < Bodies.size())
    throw UncolorableError(Failure);

  for (std::size_t I = 0; I < Bodies.size(); ++I) {
    Result.Totals += PerTask[I].Costs;
    Result.PerFunction[Bodies[I]] = std::move(PerTask[I]);
    if (Telem)
      Telem->merge(TaskTelemetry[I]);
  }
  if (Telem) {
    std::uint64_t Reuses = 0;
    for (const AllocationScratch &S : Scratches)
      Reuses += S.reuses();
    Telem->addCount(telemetry::SchedScratchReuses,
                    static_cast<double>(Reuses));
    if (Owned) {
      ThreadPool::Stats PS = Owned->stats();
      Telem->addCount(telemetry::SchedPoolBatches,
                      static_cast<double>(PS.Batches));
      Telem->addCount(telemetry::SchedPoolTasks,
                      static_cast<double>(PS.Tasks));
    }
  }
  return Result;
}
