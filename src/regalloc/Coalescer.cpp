//===- regalloc/Coalescer.cpp ---------------------------------------------===//
//
// Incremental-liveness invariant maintained across passes: at the top of
// every pass, LV (when valid) is the exact dataflow solution for the code
// *as the canonicalization sweep is about to name it*. Pass 1 gets this
// from the seed (classes are identity at round 1, and later rounds hand
// code that is already canonical); every later pass gets it from the
// previous pass's maintenance:
//
//  1. Renaming. A pass's merges form disjoint pairs (one merge per live
//     range per pass), each pair certified non-interfering by the graph.
//     Folding loser into winner (Liveness::renameRegister) yields the
//     exact solution for the renamed code with the merged copies still in
//     place — the classic coalescing result: for non-interfering
//     copy-related ranges, the merged register's liveness is the pointwise
//     union.
//  2. Deletion. Every deleted copy is `r <- r` in the renamed view. Block
//     sets can only change if the deletion changed the block's transfer
//     function f(out) = UE | (out & ~Kill), so for every affected block
//     and register we compare (UE, Kill) with and without the deleted
//     instructions — computed *after* the whole sweep, under the final
//     class map, so merges later in the pass are reflected. Functions are
//     equivalent iff UE is unchanged and (UE = 1 or Kill unchanged). The
//     rare register that fails gets an exact single-register re-solve
//     (Liveness::recomputeRegister); everything else keeps the renamed
//     solution bit for bit.
//
//===----------------------------------------------------------------------===//

#include "regalloc/Coalescer.h"

#include "analysis/AnalysisCache.h"
#include "regalloc/AllocationScratch.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/LiveRange.h"
#include "regalloc/VRegClasses.h"
#include "support/Telemetry.h"
#include "target/MachineDescription.h"

#include <algorithm>
#include <cassert>

using namespace ccra;

namespace {

/// Briggs test: merging is safe if the combined node has fewer than N
/// neighbors whose degree is at least N.
bool conservativelySafe(const InterferenceGraph &IG, unsigned A, unsigned B,
                        unsigned N) {
  unsigned Significant = 0;
  auto CountFrom = [&](unsigned Node, unsigned Other) {
    for (unsigned Neighbor : IG.neighbors(Node)) {
      if (Neighbor == Other)
        continue;
      // A shared neighbor is counted twice, which only makes the test more
      // conservative (Briggs' original behaves the same with sorted merge;
      // double counting errs on the safe side).
      unsigned Degree = IG.degree(Neighbor);
      if (IG.interfere(Neighbor, A) && IG.interfere(Neighbor, B))
        Degree -= 1; // It will lose one edge when A and B merge.
      if (Degree >= N)
        ++Significant;
    }
  };
  CountFrom(A, B);
  CountFrom(B, A);
  return Significant < N;
}

struct MergePair {
  VirtReg Winner;
  VirtReg Loser;
};

/// Rewrites every operand of \p F to its class representative.
void canonicalize(Function &F, const VRegClasses &Classes) {
  for (const auto &BB : F.blocks())
    for (Instruction &I : BB->instructions()) {
      for (VirtReg &R : I.Defs)
        R = Classes.find(R);
      for (VirtReg &R : I.Uses)
        R = Classes.find(R);
    }
}

} // namespace

CoalesceStats Coalescer::run(Function &F, VRegClasses &Classes,
                             const MachineDescription &MD,
                             const FrequencyInfo &Freq, Liveness &LV,
                             const CoalesceRequest &Req, LiveRangeSet &OutLRS,
                             InterferenceGraph &OutIG) {
  CoalesceStats Stats;
  Telemetry *T = Req.T;

  AllocationScratch LocalScratch;
  AllocationScratch &S = Req.Scratch ? *Req.Scratch : LocalScratch;

  bool LVValid = Req.SeededLV;

  // Hoisted per-pass work lists (cleared each pass, capacity kept).
  std::vector<std::size_t> BlockStart;
  std::vector<MergePair> Merges;
  std::vector<VirtReg> BlockReps, StaleRegs;

  for (unsigned Pass = 0; Pass < MaxPasses; ++Pass) {
    ++Stats.Passes;
    Classes.grow(F.numVRegs());
    // Canonicalize operands to their class representative so the code
    // never references a register whose defining copy was deleted (the IR
    // stays verifier-clean, and printed code reads naturally).
    canonicalize(F, Classes);
    if (LVValid) {
      ++Stats.IncrementalLVUpdates;
    } else {
      LV = Liveness::compute(F);
      ++Stats.LivenessComputes;
      LVValid = true;
    }
    // A pass reads only the range map; the metrics are measured below,
    // once, on the pass that changes nothing.
    LiveRangeSet LRS;
    {
      Telemetry::ScopedTimer Timer(T, telemetry::BuildRangesPhase);
      LRS = LiveRangeSet::mapRanges(F, Classes);
    }
    InterferenceGraph IG;
    {
      Telemetry::ScopedTimer Timer(T, telemetry::BuildGraphPhase);
      IG = InterferenceGraph::build(F, LV, LRS, &S);
    }

    // --- Phase 1: decide merges and deletions (code untouched) ------------
    // One merge per live range per pass: after a merge the graph is stale
    // for the nodes involved, so further copies touching them wait for the
    // next pass.
    std::vector<char> &Touched = S.touchedRanges(LRS.numRanges());
    std::size_t TotalInsts = 0;
    BlockStart.clear();
    for (const auto &BB : F.blocks()) {
      BlockStart.push_back(TotalInsts);
      TotalInsts += BB->instructions().size();
    }
    std::vector<char> &Deleted = S.deleteFlags(TotalInsts);
    Merges.clear();
    bool Changed = false;

    std::size_t BlockIdx = 0;
    for (const auto &BB : F.blocks()) {
      auto &Insts = BB->instructions();
      const std::size_t Base = BlockStart[BlockIdx++];
      for (std::size_t Idx = 0; Idx < Insts.size(); ++Idx) {
        const Instruction &I = Insts[Idx];
        if (!I.isMove())
          continue;
        int SrcRange = LRS.rangeIdOf(I.moveSource());
        int DstRange = LRS.rangeIdOf(I.moveDest());
        assert(SrcRange >= 0 && DstRange >= 0 && "move operands unmapped");
        if (SrcRange == DstRange) {
          // Already one class: the copy is dead — delete it.
          Deleted[Base + Idx] = 1;
          Changed = true;
          continue;
        }
        unsigned Src = static_cast<unsigned>(SrcRange);
        unsigned Dst = static_cast<unsigned>(DstRange);
        RegBank Bank = LRS.range(Src).Bank;
        unsigned N = MD.numRegs(Bank);
        bool CanMerge =
            !Touched[Src] && !Touched[Dst] && LRS.range(Dst).Bank == Bank &&
            !IG.interfere(Src, Dst) &&
            (Req.Aggressive || conservativelySafe(IG, Src, Dst, N));
        if (!CanMerge)
          continue;
        VirtReg RootS = LRS.range(Src).Root;
        VirtReg RootD = LRS.range(Dst).Root;
        VirtReg Winner = Classes.merge(RootS, RootD);
        if (Req.MergeLog)
          Req.MergeLog->push_back({RootS, RootD});
        if (Req.IncrementalLiveness)
          Merges.push_back({Winner, Winner == RootS ? RootD : RootS});
        Touched[Src] = Touched[Dst] = 1;
        ++Stats.CoalescedMoves;
        Deleted[Base + Idx] = 1; // The copy is dropped.
        Changed = true;
      }
    }

    if (!Changed) {
      // LV, LRS and IG all describe the final (unmodified) code.
      {
        Telemetry::ScopedTimer Timer(T, telemetry::BuildRangesPhase);
        LRS.measure(F, LV, Freq);
      }
      OutLRS = std::move(LRS);
      OutIG = std::move(IG);
      return Stats;
    }

    // --- Phase 2: certify transfer functions, then erase ------------------
    StaleRegs.clear();
    BlockIdx = 0;
    for (const auto &BB : F.blocks()) {
      auto &Insts = BB->instructions();
      const std::size_t Base = BlockStart[BlockIdx++];
      bool AnyDeleted = false;
      for (std::size_t Idx = 0; Idx < Insts.size(); ++Idx)
        AnyDeleted |= Deleted[Base + Idx] != 0;
      if (!AnyDeleted)
        continue;

      if (Req.IncrementalLiveness) {
        // The registers a deletion here can affect: the (final) class
        // representative of each deleted copy.
        BlockReps.clear();
        for (std::size_t Idx = 0; Idx < Insts.size(); ++Idx) {
          if (!Deleted[Base + Idx])
            continue;
          VirtReg Rep = Classes.find(Insts[Idx].moveDest());
          if (std::find(BlockReps.begin(), BlockReps.end(), Rep) ==
              BlockReps.end())
            BlockReps.push_back(Rep);
        }
        for (VirtReg Rep : BlockReps) {
          bool DefWith = false, DefWithout = false;
          bool UEWith = false, UEWithout = false;
          bool KillWith = false, KillWithout = false;
          for (std::size_t Idx = 0; Idx < Insts.size(); ++Idx) {
            const Instruction &I = Insts[Idx];
            bool Del = Deleted[Base + Idx] != 0;
            for (VirtReg U : I.Uses)
              if (Classes.find(U) == Rep) {
                if (!DefWith)
                  UEWith = true;
                if (!Del && !DefWithout)
                  UEWithout = true;
              }
            for (VirtReg D : I.Defs)
              if (Classes.find(D) == Rep) {
                KillWith = true;
                DefWith = true;
                if (!Del) {
                  KillWithout = true;
                  DefWithout = true;
                }
              }
          }
          bool SameTransfer =
              UEWith == UEWithout && (UEWith || KillWith == KillWithout);
          if (!SameTransfer &&
              std::find(StaleRegs.begin(), StaleRegs.end(), Rep) ==
                  StaleRegs.end())
            StaleRegs.push_back(Rep);
        }
      }

      std::size_t W = 0;
      for (std::size_t Idx = 0; Idx < Insts.size(); ++Idx)
        if (!Deleted[Base + Idx]) {
          if (W != Idx)
            Insts[W] = std::move(Insts[Idx]);
          ++W;
        }
      Insts.erase(Insts.begin() + static_cast<std::ptrdiff_t>(W),
                  Insts.end());
    }

    // --- Liveness maintenance for the next pass ---------------------------
    if (Req.IncrementalLiveness) {
      for (const MergePair &M : Merges)
        LV.renameRegister(M.Loser, M.Winner);
      if (!StaleRegs.empty()) {
        std::vector<unsigned char> UE(F.numBlocks()), Kill(F.numBlocks());
        for (VirtReg Rep : StaleRegs) {
          std::fill(UE.begin(), UE.end(), 0);
          std::fill(Kill.begin(), Kill.end(), 0);
          for (const auto &BB : F.blocks()) {
            bool DefSeen = false, UEBit = false, KillBit = false;
            for (const Instruction &I : BB->instructions()) {
              for (VirtReg U : I.Uses)
                if (!DefSeen && Classes.find(U) == Rep)
                  UEBit = true;
              for (VirtReg D : I.Defs)
                if (Classes.find(D) == Rep) {
                  KillBit = true;
                  DefSeen = true;
                }
            }
            UE[BB->getId()] = UEBit;
            Kill[BB->getId()] = KillBit;
          }
          LV.recomputeRegister(F, Rep, UE, Kill);
        }
      }
    } else {
      LVValid = false;
    }

    // This pass's graph is stale (code changed); give its buffers back to
    // the arena for the next pass's build.
    IG.recycle(S);
  }

  // Fixpoint not reached within the cap (should not happen: every pass
  // with changes removes an instruction or a class). Rebuild everything so
  // the caller still sees a consistent view.
  Classes.grow(F.numVRegs());
  canonicalize(F, Classes);
  LV = Liveness::compute(F);
  ++Stats.LivenessComputes;
  OutLRS = LiveRangeSet::build(F, LV, Freq, Classes);
  OutIG = InterferenceGraph::build(F, LV, OutLRS, &S);
  return Stats;
}

CoalesceStats Coalescer::replay(Function &F, VRegClasses &Classes,
                                const MachineDescription &MD,
                                const FrequencyInfo &Freq, Liveness &LV,
                                const CoalesceOutcome &Outcome,
                                const CoalesceRequest &Req,
                                LiveRangeSet &OutLRS,
                                InterferenceGraph &OutIG) {
  assert(Req.SeededLV && "replay derives liveness from the baseline");
  Classes.grow(F.numVRegs());
  // Every register that loses a merge is gone from the final code, so its
  // liveness is empty.
  for (const auto &[A, B] : Outcome.Merges) {
    VirtReg RootA = Classes.find(A), RootB = Classes.find(B);
    VirtReg Winner = Classes.merge(RootA, RootB);
    LV.eraseRegister(Winner == RootA ? RootB : RootA);
  }

  // One walk: canonicalize, and drop the copies the run deleted. Under the
  // final classes each of them is `w <- w`, and no kept move is (the run's
  // final pass found no same-class copy). Only the classes of dropped
  // copies changed code, so only their roots need new liveness.
  std::vector<int> RootSlot(F.numVRegs(), -1);
  std::vector<VirtReg> Roots;
  for (const auto &BB : F.blocks()) {
    auto &Insts = BB->instructions();
    std::size_t W = 0;
    for (std::size_t Idx = 0; Idx < Insts.size(); ++Idx) {
      Instruction &I = Insts[Idx];
      for (VirtReg &R : I.Defs)
        R = Classes.find(R);
      for (VirtReg &R : I.Uses)
        R = Classes.find(R);
      if (I.isMove() && I.moveSource() == I.moveDest()) {
        VirtReg Root = I.moveDest();
        if (RootSlot[Root.Id] < 0) {
          RootSlot[Root.Id] = static_cast<int>(Roots.size());
          Roots.push_back(Root);
        }
        continue;
      }
      if (W != Idx)
        Insts[W] = std::move(Insts[Idx]);
      ++W;
    }
    Insts.erase(Insts.begin() + static_cast<std::ptrdiff_t>(W), Insts.end());
  }

  // Upward-exposed-use and kill bits of every such root, in one more walk,
  // then one single-register re-solve per root.
  const std::size_t NumBlocks = F.numBlocks();
  std::vector<unsigned char> UE(Roots.size() * NumBlocks),
      Kill(Roots.size() * NumBlocks);
  for (const auto &BB : F.blocks()) {
    const std::size_t Block = BB->getId();
    for (const Instruction &I : BB->instructions()) {
      for (VirtReg U : I.Uses)
        if (int Slot = RootSlot[U.Id]; Slot >= 0) {
          std::size_t At = Slot * NumBlocks + Block;
          if (!Kill[At])
            UE[At] = 1;
        }
      for (VirtReg D : I.Defs)
        if (int Slot = RootSlot[D.Id]; Slot >= 0)
          Kill[Slot * NumBlocks + Block] = 1;
    }
  }
  std::vector<unsigned char> RootUE(NumBlocks), RootKill(NumBlocks);
  for (std::size_t Slot = 0; Slot < Roots.size(); ++Slot) {
    auto From = static_cast<std::ptrdiff_t>(Slot * NumBlocks);
    auto To = From + static_cast<std::ptrdiff_t>(NumBlocks);
    std::copy(UE.begin() + From, UE.begin() + To, RootUE.begin());
    std::copy(Kill.begin() + From, Kill.begin() + To, RootKill.begin());
    LV.recomputeRegister(F, Roots[Slot], RootUE, RootKill);
  }

  // The run's final pass, as run() makes it.
  CoalesceRequest Final = Req;
  Final.MergeLog = nullptr;
  CoalesceStats Confirm = run(F, Classes, MD, Freq, LV, Final, OutLRS, OutIG);
  assert(Confirm.Passes == 1 && Confirm.LivenessComputes == 0 &&
         "replayed coalescing is not at the recorded fixpoint");
  (void)Confirm;

  CoalesceStats Stats;
  Stats.CoalescedMoves = static_cast<unsigned>(Outcome.Merges.size());
  Stats.Passes = Outcome.Passes;
  Stats.LivenessComputes = Outcome.LivenessComputes;
  Stats.IncrementalLVUpdates = Outcome.Passes - Outcome.LivenessComputes;
  return Stats;
}
