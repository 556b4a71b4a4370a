//===- tests/LiveRangeTest.cpp - Live-range metrics unit tests ------------===//

#include "analysis/Frequency.h"
#include "analysis/Liveness.h"
#include "fuzz/Corpus.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "regalloc/Coalescer.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/LiveRange.h"
#include "regalloc/VRegClasses.h"
#include "target/MachineDescription.h"
#include "workloads/FuzzGen.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

using namespace ccra;

namespace {

// --- VRegClasses -------------------------------------------------------------

TEST(VRegClassesTest, SingletonsByDefault) {
  VRegClasses C(4);
  EXPECT_EQ(C.find(VirtReg(2)), VirtReg(2));
  EXPECT_FALSE(C.sameClass(VirtReg(0), VirtReg(1)));
}

TEST(VRegClassesTest, MergeAndFind) {
  VRegClasses C(5);
  C.merge(VirtReg(0), VirtReg(1));
  C.merge(VirtReg(1), VirtReg(4));
  EXPECT_TRUE(C.sameClass(VirtReg(0), VirtReg(4)));
  EXPECT_FALSE(C.sameClass(VirtReg(0), VirtReg(2)));
  auto Members = C.classMembers(VirtReg(4));
  EXPECT_EQ(Members.size(), 3u);
}

TEST(VRegClassesTest, GrowPreservesClasses) {
  VRegClasses C(2);
  C.merge(VirtReg(0), VirtReg(1));
  C.grow(6);
  EXPECT_TRUE(C.sameClass(VirtReg(0), VirtReg(1)));
  EXPECT_EQ(C.find(VirtReg(5)), VirtReg(5));
}

// --- LiveRange metrics ----------------------------------------------------------

struct CallCrossingFixture {
  // entry: a = imm; b = imm; arg = imm
  //        call leaf(arg)        ; a live across, b defined after? no:
  //        c = call result
  //        use a; use c          ; b last used before the call
  Module M{"m"};
  Function *Leaf, *F;
  VirtReg A, B2, Arg, CallResult;
  FrequencyInfo Freq;
  Liveness LV;
  VRegClasses Classes;
  LiveRangeSet LRS;

  CallCrossingFixture() {
    Leaf = M.createFunction("leaf");
    {
      IRBuilder B(*Leaf);
      B.startBlock("entry");
      B.buildRet();
    }
    F = M.createFunction("main");
    IRBuilder B(*F);
    B.startBlock("entry");
    A = B.buildLoadImm(1);
    B2 = B.buildLoadImm(2);
    Arg = B.buildBinary(Opcode::Add, B2, B2); // last use of B2 before call
    CallResult = B.buildCall(Leaf, {Arg}, {RegBank::Int})[0];
    VirtReg S = B.buildBinary(Opcode::Add, A, CallResult);
    B.buildRet(S);
    M.setEntryFunction(F);
    EXPECT_TRUE(verifyModule(M, nullptr));
    Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
    LV = Liveness::compute(*F);
    Classes.grow(F->numVRegs());
    LRS = LiveRangeSet::build(*F, LV, Freq, Classes);
  }

  const LiveRange &rangeOf(VirtReg R) {
    int Id = LRS.rangeIdOf(R);
    EXPECT_GE(Id, 0);
    return LRS.range(static_cast<unsigned>(Id));
  }
};

TEST(LiveRangeMetrics, CallSiteEnumeration) {
  CallCrossingFixture Fx;
  ASSERT_EQ(Fx.LRS.callSites().size(), 1u);
  EXPECT_DOUBLE_EQ(Fx.LRS.callSites()[0].Freq, 1.0);
}

TEST(LiveRangeMetrics, LiveThroughValueCrossesCall) {
  CallCrossingFixture Fx;
  const LiveRange &LR = Fx.rangeOf(Fx.A);
  EXPECT_TRUE(LR.ContainsCall);
  EXPECT_EQ(LR.CrossedCalls.size(), 1u);
  EXPECT_DOUBLE_EQ(LR.CallerSaveCost, 2.0); // one save + one restore
}

TEST(LiveRangeMetrics, ArgumentDyingAtCallDoesNotCross) {
  CallCrossingFixture Fx;
  EXPECT_FALSE(Fx.rangeOf(Fx.Arg).ContainsCall);
  EXPECT_FALSE(Fx.rangeOf(Fx.B2).ContainsCall);
}

TEST(LiveRangeMetrics, CallResultDoesNotCrossItsOwnCall) {
  CallCrossingFixture Fx;
  EXPECT_FALSE(Fx.rangeOf(Fx.CallResult).ContainsCall);
}

TEST(LiveRangeMetrics, WeightedRefsCountDefsAndUses) {
  CallCrossingFixture Fx;
  // A: 1 def + 1 use, at frequency 1.
  EXPECT_DOUBLE_EQ(Fx.rangeOf(Fx.A).WeightedRefs, 2.0);
  // B2: 1 def + 2 uses.
  EXPECT_DOUBLE_EQ(Fx.rangeOf(Fx.B2).WeightedRefs, 3.0);
  EXPECT_EQ(Fx.rangeOf(Fx.B2).NumRefs, 3u);
}

TEST(LiveRangeMetrics, BenefitFunctions) {
  CallCrossingFixture Fx;
  const LiveRange &LR = Fx.rangeOf(Fx.A);
  // benefitCaller = refs - callerCost = 2 - 2 = 0;
  // benefitCallee = refs - 2*entryFreq = 2 - 2 = 0.
  EXPECT_DOUBLE_EQ(LR.benefitCaller(), 0.0);
  EXPECT_DOUBLE_EQ(LR.benefitCallee(), 0.0);
  EXPECT_DOUBLE_EQ(LR.spillCost(), 2.0);
}

TEST(LiveRangeMetrics, NoSpillFlagFromTemps) {
  Module M("m");
  Function &F = *M.createFunction("main");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg T = F.createSpillTemp(RegBank::Int);
  Instruction Load(Opcode::SpillLoad);
  Load.Defs.push_back(T);
  Load.SpillSlot = F.createSpillSlot();
  B.getInsertBlock()->append(std::move(Load));
  B.buildRet(T);
  M.setEntryFunction(&F);
  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  Liveness LV = Liveness::compute(F);
  VRegClasses Classes(F.numVRegs());
  LiveRangeSet LRS = LiveRangeSet::build(F, LV, Freq, Classes);
  const LiveRange &LR = LRS.range(static_cast<unsigned>(LRS.rangeIdOf(T)));
  EXPECT_TRUE(LR.NoSpill);
  EXPECT_TRUE(std::isinf(LR.spillCost()));
}

TEST(LiveRangeMetrics, CoalescedClassIsOneRange) {
  Module M("m");
  Function &F = *M.createFunction("main");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg C = B.buildMove(A);
  B.buildRet(C);
  M.setEntryFunction(&F);
  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  Liveness LV = Liveness::compute(F);
  VRegClasses Classes(F.numVRegs());
  Classes.merge(A, C);
  LiveRangeSet LRS = LiveRangeSet::build(F, LV, Freq, Classes);
  EXPECT_EQ(LRS.rangeIdOf(A), LRS.rangeIdOf(C));
  const LiveRange &LR = LRS.range(static_cast<unsigned>(LRS.rangeIdOf(A)));
  // Refs of both members accumulate: A def + A use + C def + C use.
  EXPECT_DOUBLE_EQ(LR.WeightedRefs, 4.0);
}

TEST(LiveRangeMetrics, NumBlocksSpansLiveRegion) {
  // A value defined in entry and used two blocks later spans all three.
  Module M("m");
  Function &F = *M.createFunction("main");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  BasicBlock *Mid = F.createBlock("mid");
  B.buildBr(Mid);
  B.setInsertBlock(Mid);
  VirtReg Unrelated = B.buildLoadImm(2);
  VirtReg Dead = B.buildBinary(Opcode::Add, Unrelated, Unrelated);
  (void)Dead;
  BasicBlock *End = F.createBlock("end");
  B.buildBr(End);
  B.setInsertBlock(End);
  B.buildRet(A);
  M.setEntryFunction(&F);
  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  Liveness LV = Liveness::compute(F);
  VRegClasses Classes(F.numVRegs());
  LiveRangeSet LRS = LiveRangeSet::build(F, LV, Freq, Classes);
  EXPECT_EQ(LRS.range(static_cast<unsigned>(LRS.rangeIdOf(A))).NumBlocks, 3u);
  EXPECT_EQ(
      LRS.range(static_cast<unsigned>(LRS.rangeIdOf(Unrelated))).NumBlocks,
      1u);
}

TEST(LiveRangeMetrics, SpilledAwayRegisterHasNoRange) {
  // A register that no longer occurs in the code (e.g. fully rewritten by
  // spilling) gets no live range.
  Module M("m");
  Function &F = *M.createFunction("main");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg Ghost = F.createVReg(RegBank::Int); // never referenced
  B.buildRet(A);
  M.setEntryFunction(&F);
  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  Liveness LV = Liveness::compute(F);
  VRegClasses Classes(F.numVRegs());
  LiveRangeSet LRS = LiveRangeSet::build(F, LV, Freq, Classes);
  EXPECT_EQ(LRS.rangeIdOf(Ghost), -1);
  EXPECT_GE(LRS.rangeIdOf(A), 0);
}

// --- Range map, then measure ------------------------------------------------

void expectSameRangeSet(const LiveRangeSet &A, const LiveRangeSet &B,
                        unsigned NumVRegs) {
  EXPECT_TRUE(A.ranges() == B.ranges());
  for (unsigned V = 0; V < NumVRegs; ++V)
    ASSERT_EQ(A.rangeIdOf(VirtReg(V)), B.rangeIdOf(VirtReg(V))) << "%" << V;
  ASSERT_EQ(A.callSites().size(), B.callSites().size());
  for (std::size_t I = 0; I < A.callSites().size(); ++I) {
    const CallSite &X = A.callSites()[I], &Y = B.callSites()[I];
    EXPECT_TRUE(X.Id == Y.Id && X.Block == Y.Block &&
                X.InstIndex == Y.InstIndex && X.Freq == Y.Freq &&
                X.Inst == Y.Inst)
        << "call site " << I;
  }
}

/// For every function body of \p Src: mapRanges then measure equals a
/// one-shot build on the input code, and the coalescer's ranges — mapped
/// at the start of its last pass, measured once that pass changed nothing
/// — equal a one-shot build on the coalesced code.
void expectMeasuredMapMatchesOneShotBuild(const Module &Src) {
  std::unique_ptr<Module> M = cloneModule(Src);
  FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
  MachineDescription MD(RegisterConfig(6, 4, 1, 1));
  for (const auto &FPtr : M->functions()) {
    Function &F = *FPtr;
    if (F.isDeclaration())
      continue;
    SCOPED_TRACE(F.getName());
    VRegClasses Classes(F.numVRegs());
    Liveness LV = Liveness::compute(F);
    LiveRangeSet Mapped = LiveRangeSet::mapRanges(F, Classes);
    Mapped.measure(F, LV, Freq);
    expectSameRangeSet(Mapped, LiveRangeSet::build(F, LV, Freq, Classes),
                       F.numVRegs());

    Liveness Coalesced;
    LiveRangeSet LRS;
    InterferenceGraph IG;
    Coalescer::run(F, Classes, MD, Freq, Coalesced, CoalesceRequest(), LRS,
                   IG);
    expectSameRangeSet(LRS,
                       LiveRangeSet::build(F, Coalesced, Freq, Classes),
                       F.numVRegs());
  }
}

TEST(LiveRangeMeasure, MapThenMeasureMatchesOneShotBuildOnCorpus) {
  std::vector<std::string> Errors;
  std::vector<CorpusEntry> Corpus =
      loadCorpusDir(std::string(CCRA_SOURCE_DIR) + "/fuzz/corpus", Errors);
  EXPECT_TRUE(Errors.empty());
  ASSERT_GE(Corpus.size(), 20u);
  for (const CorpusEntry &Entry : Corpus) {
    SCOPED_TRACE(Entry.Path);
    expectMeasuredMapMatchesOneShotBuild(*Entry.M);
  }
}

TEST(LiveRangeMeasure, MapThenMeasureMatchesOneShotBuildOnFuzzBodies) {
  for (FuzzProfile Profile :
       {FuzzProfile::Mixed, FuzzProfile::CallDense, FuzzProfile::BankMix,
        FuzzProfile::HighDegree, FuzzProfile::PathologicalLive})
    for (uint64_t Seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message()
                   << fuzzProfileName(Profile) << " seed " << Seed);
      FuzzGenParams P;
      P.Seed = Seed;
      P.Profile = Profile;
      expectMeasuredMapMatchesOneShotBuild(*generateFuzzModule(P));
    }
}

} // namespace
