//===- regalloc/LiveRange.cpp ---------------------------------------------===//

#include "regalloc/LiveRange.h"

#include "analysis/Frequency.h"
#include "analysis/Liveness.h"
#include "regalloc/VRegClasses.h"
#include "support/BitVector.h"

#include <algorithm>
#include <cassert>

using namespace ccra;

unsigned LiveRangeSet::addRange(LiveRange LR) {
  LR.Id = numRanges();
  Ranges.push_back(std::move(LR));
  return Ranges.back().Id;
}

int LiveRangeSet::rangeIdOf(VirtReg R) const {
  assert(R.Id < VRegToRange.size() && "register out of range");
  return VRegToRange[R.Id];
}

LiveRangeSet LiveRangeSet::mapRanges(const Function &F,
                                     const VRegClasses &Classes) {
  LiveRangeSet Set;
  unsigned NumVRegs = F.numVRegs();
  Set.VRegToRange.assign(NumVRegs, -1);

  // Which registers actually appear in the code? Registers whose live range
  // was spilled in a previous round no longer occur and get no live range.
  std::vector<bool> Referenced(NumVRegs, false);
  for (const auto &BB : F.blocks()) {
    for (const Instruction &I : BB->instructions()) {
      for (VirtReg R : I.Defs)
        Referenced[R.Id] = true;
      for (VirtReg R : I.Uses)
        Referenced[R.Id] = true;
    }
  }

  // Create one live range per referenced congruence class, in ascending
  // root order for determinism.
  for (unsigned V = 0; V < NumVRegs; ++V) {
    if (!Referenced[V])
      continue;
    unsigned Root = Classes.find(VirtReg(V)).Id;
    if (Set.VRegToRange[Root] == -1) {
      LiveRange LR;
      LR.Id = Set.numRanges();
      LR.Root = VirtReg(Root);
      LR.Bank = F.vregBank(VirtReg(V));
      Set.VRegToRange[Root] = static_cast<int>(LR.Id);
      Set.Ranges.push_back(std::move(LR));
    }
  }
  // Map every member register to its class's live range. A class is
  // unspillable when *any* member is a reload temporary (operands may have
  // been canonicalized to the representative, so membership — not
  // occurrence — is what matters).
  for (unsigned V = 0; V < NumVRegs; ++V) {
    unsigned Root = Classes.find(VirtReg(V)).Id;
    Set.VRegToRange[V] = Set.VRegToRange[Root];
    if (Set.VRegToRange[V] >= 0 && F.isSpillTemp(VirtReg(V)))
      Set.Ranges[Set.VRegToRange[V]].NoSpill = true;
  }
  return Set;
}

void LiveRangeSet::enumerateCallSites(const Function &F,
                                      const FrequencyInfo &Freq) {
  for (const auto &BB : F.blocks()) {
    const auto &Insts = BB->instructions();
    for (unsigned Idx = 0; Idx < Insts.size(); ++Idx) {
      if (!Insts[Idx].isCall())
        continue;
      CallSite CS;
      CS.Id = static_cast<unsigned>(Calls.size());
      CS.Block = BB.get();
      CS.InstIndex = Idx;
      CS.Freq = Freq.blockFrequency(*BB);
      CS.Inst = &Insts[Idx];
      Calls.push_back(CS);
    }
  }
}

void LiveRangeSet::measure(const Function &F, const Liveness &LV,
                           const FrequencyInfo &Freq) {
  assert(Calls.empty() && "live ranges measured twice");
  enumerateCallSites(F, Freq);

  // Weighted references and block spans.
  std::vector<int> LastBlockSeen(numRanges(), -1);
  auto SpanBlock = [&](int RangeId, int BlockId) {
    if (RangeId < 0 || LastBlockSeen[RangeId] == BlockId)
      return;
    LastBlockSeen[RangeId] = BlockId;
    ++Ranges[RangeId].NumBlocks;
  };
  for (const auto &BB : F.blocks()) {
    double BlockFreq = Freq.blockFrequency(*BB);
    int BlockId = static_cast<int>(BB->getId());
    auto Reference = [&](VirtReg R) {
      LiveRange &LR = Ranges[VRegToRange[R.Id]];
      LR.WeightedRefs += BlockFreq;
      ++LR.NumRefs;
      SpanBlock(VRegToRange[R.Id], BlockId);
    };
    for (const Instruction &I : BB->instructions()) {
      for (VirtReg R : I.Defs)
        Reference(R);
      for (VirtReg R : I.Uses)
        Reference(R);
    }
    for (unsigned V : LV.liveIn(*BB))
      SpanBlock(VRegToRange[V], BlockId);
    for (unsigned V : LV.liveOut(*BB))
      SpanBlock(VRegToRange[V], BlockId);
  }

  // Call-crossing: a live range crosses a call when some member register is
  // live immediately after the call and not defined by it (then it is also
  // live immediately before, i.e. live *through* the call). Calls were
  // numbered in block order, so walking a block backward meets its calls
  // at descending ids, from the next block's first id down to its own; the
  // walk skips blocks without calls and stops at a block's first call.
  std::vector<unsigned> LastCallSeen(numRanges(), ~0u);
  BitVector Live(F.numVRegs());
  unsigned BlockCallsEnd = 0;
  for (const auto &BB : F.blocks()) {
    const unsigned BlockCallsBegin = BlockCallsEnd;
    while (BlockCallsEnd < Calls.size() &&
           Calls[BlockCallsEnd].Block == BB.get())
      ++BlockCallsEnd;
    unsigned CallId = BlockCallsEnd;
    if (CallId == BlockCallsBegin)
      continue;
    Live = LV.liveOut(*BB);
    const auto &Insts = BB->instructions();
    for (auto It = Insts.rbegin(); CallId != BlockCallsBegin; ++It) {
      const Instruction &I = *It;
      if (I.isCall()) {
        --CallId;
        assert(Calls[CallId].Inst == &I && "call site not enumerated");
        double CallFreq = Calls[CallId].Freq;
        for (unsigned V : Live) {
          if (std::find(I.Defs.begin(), I.Defs.end(), VirtReg(V)) !=
              I.Defs.end())
            continue;
          int RangeId = VRegToRange[V];
          assert(RangeId >= 0 && "live register without live range");
          LiveRange &LR = Ranges[RangeId];
          if (LastCallSeen[RangeId] == CallId)
            continue; // Another member already crossed this call.
          LastCallSeen[RangeId] = CallId;
          LR.CrossedCalls.push_back(CallId);
          LR.CallerSaveCost += 2.0 * CallFreq;
          LR.ContainsCall = true;
        }
      }
      for (VirtReg D : I.Defs)
        Live.reset(D.Id);
      for (VirtReg U : I.Uses)
        Live.set(U.Id);
    }
  }
  for (LiveRange &LR : Ranges)
    std::sort(LR.CrossedCalls.begin(), LR.CrossedCalls.end());

  double CalleeSaveCost = 2.0 * Freq.entryFrequency(F);
  for (LiveRange &LR : Ranges)
    LR.CalleeSaveCost = CalleeSaveCost;
}

LiveRangeSet LiveRangeSet::build(const Function &F, const Liveness &LV,
                                 const FrequencyInfo &Freq,
                                 const VRegClasses &Classes) {
  LiveRangeSet Set = mapRanges(F, Classes);
  Set.measure(F, LV, Freq);
  return Set;
}
