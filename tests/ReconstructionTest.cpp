//===- tests/ReconstructionTest.cpp - Graph reconstruction equivalence ----===//
//
// The incremental graph reconstruction (paper §2) must produce *exactly*
// the state a from-scratch recomputation would: same live ranges with the
// same metrics, same interference edges, same liveness sets. The oracle's
// component check (fuzz/Oracle.h) compares the two on every spill round
// that leaves no copies.
//
//===----------------------------------------------------------------------===//

#include "analysis/Frequency.h"
#include "ir/IRBuilder.h"
#include "regalloc/GraphReconstructor.h"
#include "regalloc/SpillCodeInserter.h"
#include "regalloc/VRegClasses.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace ccra;

namespace {

std::set<std::pair<unsigned, unsigned>> edgeSet(const InterferenceGraph &IG) {
  std::set<std::pair<unsigned, unsigned>> Edges;
  for (unsigned A = 0; A < IG.numNodes(); ++A)
    for (unsigned B : IG.neighbors(A))
      Edges.insert({std::min(A, B), std::max(A, B)});
  return Edges;
}

void expectSameRanges(const LiveRangeSet &Patched, const LiveRangeSet &Fresh,
                      unsigned NumVRegs) {
  ASSERT_EQ(Patched.numRanges(), Fresh.numRanges());
  for (unsigned I = 0; I < Patched.numRanges(); ++I) {
    const LiveRange &A = Patched.range(I);
    const LiveRange &B = Fresh.range(I);
    EXPECT_EQ(A.Root, B.Root) << I;
    EXPECT_EQ(A.Bank, B.Bank) << I;
    EXPECT_DOUBLE_EQ(A.WeightedRefs, B.WeightedRefs) << I;
    EXPECT_DOUBLE_EQ(A.CallerSaveCost, B.CallerSaveCost) << I;
    EXPECT_DOUBLE_EQ(A.CalleeSaveCost, B.CalleeSaveCost) << I;
    EXPECT_EQ(A.NumRefs, B.NumRefs) << I;
    EXPECT_EQ(A.NoSpill, B.NoSpill) << I;
    EXPECT_EQ(A.ContainsCall, B.ContainsCall) << I;
    EXPECT_EQ(A.CrossedCalls, B.CrossedCalls) << I;
  }
  for (unsigned V = 0; V < NumVRegs; ++V)
    EXPECT_EQ(Patched.rangeIdOf(VirtReg(V)), Fresh.rangeIdOf(VirtReg(V)))
        << 'v' << V;
}

/// Builds a copy-free function with a call and pressure, spills one class,
/// and compares patched state against freshly computed state.
TEST(GraphReconstruction, MatchesFromScratchOnHandBuiltFunction) {
  Module M("m");
  Function *Leaf = M.createFunction("leaf");
  {
    IRBuilder B(*Leaf);
    B.startBlock("entry");
    B.buildRet();
  }
  Function &F = *M.createFunction("main");
  IRBuilder B(F);
  B.startBlock("entry");
  std::vector<VirtReg> Pool;
  for (int I = 0; I < 5; ++I)
    Pool.push_back(B.buildLoadImm(I));
  B.buildCall(Leaf, {});
  BasicBlock *Next = F.createBlock("next");
  B.buildBr(Next);
  B.setInsertBlock(Next);
  VirtReg Acc = Pool[0];
  for (int I = 1; I < 5; ++I)
    Acc = B.buildBinary(Opcode::Add, Acc, Pool[static_cast<size_t>(I)]);
  B.buildRet(Acc);
  M.setEntryFunction(&F);

  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  VRegClasses Classes(F.numVRegs());
  Liveness LV = Liveness::compute(F);
  LiveRangeSet LRS = LiveRangeSet::build(F, LV, Freq, Classes);
  InterferenceGraph IG = InterferenceGraph::build(F, LV, LRS);

  // Spill Pool[1]'s live range.
  unsigned SpilledId = static_cast<unsigned>(LRS.rangeIdOf(Pool[1]));
  unsigned OldNumVRegs = F.numVRegs();
  SpillCodeInserter::run(F, {{Pool[1]}});

  Classes.grow(F.numVRegs());
  GraphReconstructor::apply(F, Freq, LV, LRS, IG, {SpilledId}, OldNumVRegs);

  Liveness FreshLV = Liveness::compute(F);
  LiveRangeSet FreshLRS = LiveRangeSet::build(F, FreshLV, Freq, Classes);
  InterferenceGraph FreshIG = InterferenceGraph::build(F, FreshLV, FreshLRS);

  expectSameRanges(LRS, FreshLRS, F.numVRegs());
  EXPECT_EQ(edgeSet(IG), edgeSet(FreshIG));
  for (const auto &BB : F.blocks()) {
    EXPECT_TRUE(LV.liveIn(*BB) == FreshLV.liveIn(*BB)) << BB->getName();
    EXPECT_TRUE(LV.liveOut(*BB) == FreshLV.liveOut(*BB)) << BB->getName();
  }
  EXPECT_EQ(LRS.callSites().size(), FreshLRS.callSites().size());
}

TEST(GraphReconstruction, MatchesFromScratchOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    SCOPED_TRACE(Seed);
    RandomProgramParams Params;
    Params.Seed = Seed;
    Params.UseMoves = false; // copy-free, the exactness precondition
    std::unique_ptr<Module> M = generateRandomProgram(Params);
    FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);

    for (const auto &FPtr : M->functions()) {
      Function &F = *FPtr;
      if (F.isDeclaration())
        continue;
      ASSERT_TRUE(GraphReconstructor::hasNoCopies(F));
      VRegClasses Classes(F.numVRegs());
      Liveness LV = Liveness::compute(F);
      LiveRangeSet LRS = LiveRangeSet::build(F, LV, Freq, Classes);
      InterferenceGraph IG = InterferenceGraph::build(F, LV, LRS);
      if (LRS.numRanges() < 3)
        continue;

      // Spill the two highest-degree spillable ranges.
      std::vector<unsigned> ByDegree;
      for (unsigned I = 0; I < LRS.numRanges(); ++I)
        if (!LRS.range(I).NoSpill)
          ByDegree.push_back(I);
      std::sort(ByDegree.begin(), ByDegree.end(),
                [&](unsigned A, unsigned B) {
                  return IG.degree(A) > IG.degree(B);
                });
      ByDegree.resize(std::min<size_t>(2, ByDegree.size()));

      std::vector<std::vector<VirtReg>> SpillClasses;
      for (unsigned Id : ByDegree) {
        std::vector<VirtReg> Members;
        for (unsigned V = 0; V < F.numVRegs(); ++V)
          if (LRS.rangeIdOf(VirtReg(V)) == static_cast<int>(Id))
            Members.push_back(VirtReg(V));
        SpillClasses.push_back(std::move(Members));
      }
      unsigned OldNumVRegs = F.numVRegs();
      SpillCodeInserter::run(F, SpillClasses);
      Classes.grow(F.numVRegs());
      GraphReconstructor::apply(F, Freq, LV, LRS, IG, ByDegree, OldNumVRegs);

      Liveness FreshLV = Liveness::compute(F);
      LiveRangeSet FreshLRS = LiveRangeSet::build(F, FreshLV, Freq, Classes);
      InterferenceGraph FreshIG = InterferenceGraph::build(F, FreshLV, FreshLRS);
      expectSameRanges(LRS, FreshLRS, F.numVRegs());
      EXPECT_EQ(edgeSet(IG), edgeSet(FreshIG));
    }
  }
}

TEST(GraphReconstruction, HasNoCopiesDetectsMoves) {
  Module M("m");
  Function &F = *M.createFunction("f");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  EXPECT_TRUE(GraphReconstructor::hasNoCopies(F));
  B.buildMove(A);
  EXPECT_FALSE(GraphReconstructor::hasNoCopies(F));
}

} // namespace
