//===- regalloc/GraphReconstructor.cpp ------------------------------------===//

#include "regalloc/GraphReconstructor.h"

#include "analysis/Frequency.h"
#include "regalloc/AllocationScratch.h"

#include <algorithm>
#include <cassert>

using namespace ccra;

bool GraphReconstructor::hasNoCopies(const Function &F) {
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      if (I.isMove())
        return false;
  return true;
}

void GraphReconstructor::apply(const Function &F, const FrequencyInfo &Freq,
                               Liveness &LV, LiveRangeSet &LRS,
                               InterferenceGraph &IG,
                               const std::vector<unsigned> &SpilledRangeIds,
                               unsigned OldNumVRegs,
                               AllocationScratch *Scratch) {
  const unsigned OldNumRanges = LRS.numRanges();
  const unsigned NewNumVRegs = F.numVRegs();

  std::vector<bool> Spilled(OldNumRanges, false);
  for (unsigned Id : SpilledRangeIds)
    Spilled[Id] = true;

  // --- Liveness: spilled registers vanish; temporaries are block-local ----
  for (unsigned V = 0; V < OldNumVRegs; ++V) {
    int RangeId = LRS.rangeIdOf(VirtReg(V));
    if (RangeId >= 0 && Spilled[static_cast<unsigned>(RangeId)])
      LV.eraseRegister(VirtReg(V));
  }
  LV.growUniverse(NewNumVRegs);

  // --- Live ranges: drop spilled, renumber survivors, append temps --------
  std::vector<int> NewIdOfOld(OldNumRanges, -1);
  std::vector<LiveRange> NewRanges;
  NewRanges.reserve(OldNumRanges);
  for (unsigned Id = 0; Id < OldNumRanges; ++Id) {
    if (Spilled[Id])
      continue;
    NewIdOfOld[Id] = static_cast<int>(NewRanges.size());
    LiveRange LR = LRS.range(Id);
    LR.Id = static_cast<unsigned>(NewRanges.size());
    // The preference decision annotates ranges during each round; a fresh
    // round starts with clean annotations.
    LR.ForcedCallerPref = false;
    NewRanges.push_back(std::move(LR));
  }

  // One singleton range per reload temporary, metrics from the code.
  std::vector<int> TempRangeOf(NewNumVRegs - OldNumVRegs, -1);
  auto TempIndex = [&](VirtReg R) {
    return static_cast<unsigned>(R.Id - OldNumVRegs);
  };
  for (const auto &BB : F.blocks()) {
    double BlockFreq = Freq.blockFrequency(*BB);
    for (const Instruction &I : BB->instructions()) {
      auto Touch = [&](VirtReg R) {
        if (R.Id < OldNumVRegs)
          return;
        int &Slot = TempRangeOf[TempIndex(R)];
        if (Slot < 0) {
          LiveRange Temp;
          Temp.Id = static_cast<unsigned>(NewRanges.size());
          Temp.Root = R;
          Temp.Bank = F.vregBank(R);
          Temp.CalleeSaveCost = 2.0 * Freq.entryFrequency(F);
          Temp.NumBlocks = 1;
          Temp.NoSpill = true;
          Slot = static_cast<int>(Temp.Id);
          NewRanges.push_back(std::move(Temp));
        }
        LiveRange &Temp = NewRanges[static_cast<size_t>(Slot)];
        Temp.WeightedRefs += BlockFreq;
        ++Temp.NumRefs;
      };
      for (VirtReg D : I.Defs)
        Touch(D);
      for (VirtReg U : I.Uses)
        Touch(U);
    }
  }

  LiveRangeSet NewLRS;
  for (LiveRange &LR : NewRanges)
    NewLRS.addRange(std::move(LR));
  NewLRS.resizeMapping(NewNumVRegs);
  for (unsigned V = 0; V < OldNumVRegs; ++V) {
    int OldRange = LRS.rangeIdOf(VirtReg(V));
    NewLRS.mapRegister(VirtReg(V),
                       OldRange < 0
                           ? -1
                           : NewIdOfOld[static_cast<unsigned>(OldRange)]);
  }
  for (unsigned V = OldNumVRegs; V < NewNumVRegs; ++V)
    NewLRS.mapRegister(VirtReg(V), TempRangeOf[TempIndex(VirtReg(V))]);

  // Call sites: spill code shifted instruction positions but never
  // reordered calls, so re-enumerating preserves the ids that survivors'
  // CrossedCalls lists reference.
  NewLRS.enumerateCallSites(F, Freq);

  // --- Interference graph: copy surviving edges, rescan touched blocks ----
  // The new graph keeps the old graph's representation policy, so a forced
  // Dense/Sparse choice survives spill rounds.
  AllocationScratch LocalScratch;
  AllocationScratch &S = Scratch ? *Scratch : LocalScratch;
  InterferenceGraph NewIG(NewLRS.numRanges(), IG.policy(), &S);
  for (unsigned A = 0; A < OldNumRanges; ++A) {
    if (NewIdOfOld[A] < 0)
      continue;
    for (unsigned B : IG.neighbors(A)) {
      if (B <= A || NewIdOfOld[B] < 0)
        continue;
      NewIG.addEdge(static_cast<unsigned>(NewIdOfOld[A]),
                    static_cast<unsigned>(NewIdOfOld[B]));
    }
  }
  // Blocks referencing a temporary are the only ones with new edges
  // (everything else kept its liveness and instructions).
  for (const auto &BB : F.blocks()) {
    bool Touched = false;
    for (const Instruction &I : BB->instructions()) {
      for (VirtReg D : I.Defs)
        Touched |= D.Id >= OldNumVRegs;
      for (VirtReg U : I.Uses)
        Touched |= U.Id >= OldNumVRegs;
      if (Touched)
        break;
    }
    if (Touched)
      InterferenceGraph::scanBlockForEdges(*BB, LV.liveOut(*BB), NewLRS, NewIG,
                                           &S);
  }
  NewIG.finalize(&S);

  LRS = std::move(NewLRS);
  IG.recycle(S);
  IG = std::move(NewIG);
}
