//===- tests/AnalysisTest.cpp - CFG/dominator/loop/liveness/frequency -----===//

#include "analysis/AnalysisCache.h"
#include "analysis/CfgTraversal.h"
#include "analysis/Dominators.h"
#include "analysis/Frequency.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "workloads/FuzzGen.h"
#include "workloads/RandomProgram.h"

#include <bit>
#include <cmath>
#include <gtest/gtest.h>
#include <unordered_map>

using namespace ccra;

namespace {

/// entry -> (then | else) -> join -> ret, with probability \p ThenProb.
struct Diamond {
  Module M{"m"};
  Function *F;
  BasicBlock *Entry, *Then, *Else, *Join;
  VirtReg A, B2, ThenVal;

  explicit Diamond(double ThenProb = 0.5) {
    F = M.createFunction("f");
    IRBuilder B(*F);
    Entry = B.startBlock("entry");
    A = B.buildLoadImm(1);
    B2 = B.buildLoadImm(2);
    VirtReg C = B.buildCmp(A, B2);
    Then = F->createBlock("then");
    Else = F->createBlock("else");
    Join = F->createBlock("join");
    B.buildCondBr(C, Then, Else, ThenProb);
    B.setInsertBlock(Then);
    ThenVal = B.buildBinary(Opcode::Add, A, B2);
    B.buildBr(Join);
    B.setInsertBlock(Else);
    B.buildBr(Join);
    B.setInsertBlock(Join);
    VirtReg R = B.buildBinary(Opcode::Add, A, A);
    B.buildRet(R);
    EXPECT_TRUE(verifyFunction(*F, nullptr));
  }
};

/// entry -> header (self loop with back probability P) -> exit.
struct SingleLoop {
  Module M{"m"};
  Function *F;
  BasicBlock *Entry, *Header, *Exit;
  VirtReg LiveThrough;

  explicit SingleLoop(double BackProb = 0.9) {
    F = M.createFunction("f");
    IRBuilder B(*F);
    Entry = B.startBlock("entry");
    LiveThrough = B.buildLoadImm(5);
    Header = F->createBlock("header");
    B.buildBr(Header);
    B.setInsertBlock(Header);
    VirtReg C = B.buildCmp(LiveThrough, LiveThrough);
    Exit = F->createBlock("exit");
    B.buildCondBr(C, Header, Exit, BackProb);
    B.setInsertBlock(Exit);
    B.buildRet(LiveThrough);
    EXPECT_TRUE(verifyFunction(*F, nullptr));
  }
};

// --- RPO ---------------------------------------------------------------------

TEST(CfgTraversal, DiamondRpo) {
  Diamond D;
  auto Rpo = computeReversePostOrder(*D.F);
  ASSERT_EQ(Rpo.size(), 4u);
  EXPECT_EQ(Rpo.front(), D.Entry);
  EXPECT_EQ(Rpo.back(), D.Join);
  EXPECT_TRUE(allBlocksReachable(*D.F));
}

TEST(CfgTraversal, UnreachableBlockDetected) {
  Diamond D;
  BasicBlock *Orphan = D.F->createBlock("orphan");
  Orphan->append(Instruction(Opcode::Ret));
  EXPECT_FALSE(allBlocksReachable(*D.F));
}

// --- Dominators ----------------------------------------------------------------

TEST(Dominators, Diamond) {
  Diamond D;
  DominatorTree DT = DominatorTree::compute(*D.F);
  EXPECT_EQ(DT.immediateDominator(D.Entry), nullptr);
  EXPECT_EQ(DT.immediateDominator(D.Then), D.Entry);
  EXPECT_EQ(DT.immediateDominator(D.Else), D.Entry);
  EXPECT_EQ(DT.immediateDominator(D.Join), D.Entry);
  EXPECT_TRUE(DT.dominates(D.Entry, D.Join));
  EXPECT_TRUE(DT.dominates(D.Join, D.Join));
  EXPECT_FALSE(DT.dominates(D.Then, D.Join));
}

TEST(Dominators, Loop) {
  SingleLoop L;
  DominatorTree DT = DominatorTree::compute(*L.F);
  EXPECT_TRUE(DT.dominates(L.Header, L.Exit));
  EXPECT_TRUE(DT.dominates(L.Entry, L.Header));
  EXPECT_FALSE(DT.dominates(L.Exit, L.Header));
}

// --- Loops ------------------------------------------------------------------------

TEST(LoopInfoTest, DetectsSelfLoop) {
  SingleLoop L;
  DominatorTree DT = DominatorTree::compute(*L.F);
  LoopInfo LI = LoopInfo::compute(*L.F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_EQ(LI.loops()[0].Header, L.Header);
  EXPECT_EQ(LI.loopDepth(L.Header), 1u);
  EXPECT_EQ(LI.loopDepth(L.Entry), 0u);
  EXPECT_EQ(LI.loopDepth(L.Exit), 0u);
  EXPECT_TRUE(LI.isBackEdge(L.Header, L.Header));
  EXPECT_FALSE(LI.isBackEdge(L.Entry, L.Header));
  EXPECT_TRUE(LI.isLoopHeader(L.Header));
}

TEST(LoopInfoTest, NestedLoopDepths) {
  // entry -> H1 -> H2(self) -> T1 -> (H1 | exit)
  Module M("m");
  Function &F = *M.createFunction("f");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg V = B.buildLoadImm(1);
  BasicBlock *H1 = F.createBlock("h1");
  B.buildBr(H1);
  B.setInsertBlock(H1);
  BasicBlock *H2 = F.createBlock("h2");
  B.buildBr(H2);
  B.setInsertBlock(H2);
  VirtReg C2 = B.buildCmp(V, V);
  BasicBlock *T1 = F.createBlock("t1");
  B.buildCondBr(C2, H2, T1, 0.9);
  B.setInsertBlock(T1);
  VirtReg C1 = B.buildCmp(V, V);
  BasicBlock *Exit = F.createBlock("exit");
  B.buildCondBr(C1, H1, Exit, 0.9);
  B.setInsertBlock(Exit);
  B.buildRet(V);
  ASSERT_TRUE(verifyFunction(F, nullptr));

  DominatorTree DT = DominatorTree::compute(F);
  LoopInfo LI = LoopInfo::compute(F, DT);
  EXPECT_EQ(LI.loops().size(), 2u);
  EXPECT_EQ(LI.loopDepth(H2), 2u);
  EXPECT_EQ(LI.loopDepth(H1), 1u);
  EXPECT_EQ(LI.loopDepth(T1), 1u);
  EXPECT_EQ(LI.loopDepth(Exit), 0u);
}

// --- Liveness -------------------------------------------------------------------

TEST(LivenessTest, StraightLine) {
  Module M("m");
  Function &F = *M.createFunction("f");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg C = B.buildBinary(Opcode::Add, A, A);
  B.buildRet(C);
  Liveness LV = Liveness::compute(F);
  // Nothing is live across block boundaries in a single-block function.
  EXPECT_TRUE(LV.liveOut(*F.getEntryBlock()).none());
  EXPECT_TRUE(LV.liveIn(*F.getEntryBlock()).none());
  EXPECT_FALSE(LV.liveIntoEntry(F, A));
}

TEST(LivenessTest, AcrossDiamond) {
  Diamond D;
  Liveness LV = Liveness::compute(*D.F);
  // A is used in the join block, so it is live out of entry and live
  // through both arms.
  EXPECT_TRUE(LV.liveOut(*D.Entry).test(D.A.Id));
  EXPECT_TRUE(LV.liveIn(*D.Then).test(D.A.Id));
  EXPECT_TRUE(LV.liveIn(*D.Else).test(D.A.Id));
  EXPECT_TRUE(LV.liveIn(*D.Join).test(D.A.Id));
  // B2 is last used in then; it is not live into join.
  EXPECT_FALSE(LV.liveIn(*D.Join).test(D.B2.Id));
  // ThenVal is dead (never used).
  EXPECT_FALSE(LV.liveOut(*D.Then).test(D.ThenVal.Id));
}

TEST(LivenessTest, LiveThroughLoop) {
  SingleLoop L;
  Liveness LV = Liveness::compute(*L.F);
  EXPECT_TRUE(LV.liveIn(*L.Header).test(L.LiveThrough.Id));
  EXPECT_TRUE(LV.liveOut(*L.Header).test(L.LiveThrough.Id));
  EXPECT_TRUE(LV.liveIn(*L.Exit).test(L.LiveThrough.Id));
}

// --- Frequencies -------------------------------------------------------------------

TEST(Frequency, DiamondSplit) {
  Diamond D(0.2);
  auto Freq = computeRelativeBlockFrequencies(*D.F, FrequencyMode::Profile);
  EXPECT_NEAR(Freq[D.Entry->getId()], 1.0, 1e-9);
  EXPECT_NEAR(Freq[D.Then->getId()], 0.2, 1e-9);
  EXPECT_NEAR(Freq[D.Else->getId()], 0.8, 1e-9);
  EXPECT_NEAR(Freq[D.Join->getId()], 1.0, 1e-9);
}

TEST(Frequency, StaticIgnoresRecordedProbabilities) {
  Diamond D(0.01); // true probabilities are extreme...
  auto Freq = computeRelativeBlockFrequencies(*D.F, FrequencyMode::Static);
  EXPECT_NEAR(Freq[D.Then->getId()], 0.5, 1e-9); // ...static says 50/50
  EXPECT_NEAR(Freq[D.Else->getId()], 0.5, 1e-9);
}

TEST(Frequency, LoopTripCount) {
  SingleLoop L(0.95); // trip count 20
  auto Freq = computeRelativeBlockFrequencies(*L.F, FrequencyMode::Profile);
  EXPECT_NEAR(Freq[L.Header->getId()], 20.0, 1e-6);
  EXPECT_NEAR(Freq[L.Exit->getId()], 1.0, 1e-9);
}

TEST(Frequency, StaticLoopHeuristicIsTenTrips) {
  SingleLoop L(0.999); // truth: 1000 trips
  auto Freq = computeRelativeBlockFrequencies(*L.F, FrequencyMode::Static);
  EXPECT_NEAR(Freq[L.Header->getId()], 10.0, 1e-6);
}

TEST(Frequency, DeeplyNestedLoopsSolveExactly) {
  // Three nested trip-100 loops: the inner header runs 1e6 times. (This is
  // the case fixpoint iteration cannot solve in reasonable time; the exact
  // linear solve must.)
  Module M("m");
  Function &F = *M.createFunction("f");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg V = B.buildLoadImm(1);
  std::vector<BasicBlock *> Headers, Exits;
  for (int I = 0; I < 3; ++I) {
    BasicBlock *H = F.createBlock();
    B.buildBr(H);
    B.setInsertBlock(H);
    Headers.push_back(H);
    Exits.push_back(F.createBlock());
  }
  for (int I = 2; I >= 0; --I) {
    VirtReg C = B.buildCmp(V, V);
    B.buildCondBr(C, Headers[static_cast<size_t>(I)],
                  Exits[static_cast<size_t>(I)], 0.99);
    B.setInsertBlock(Exits[static_cast<size_t>(I)]);
  }
  B.buildRet(V);
  ASSERT_TRUE(verifyFunction(F, nullptr));
  auto Freq = computeRelativeBlockFrequencies(F, FrequencyMode::Profile);
  EXPECT_NEAR(Freq[Headers[2]->getId()], 1e6, 1.0);
}

TEST(Frequency, InterproceduralInvocationCounts) {
  Module M("m");
  Function *Leaf = M.createFunction("leaf");
  {
    IRBuilder B(*Leaf);
    B.startBlock("entry");
    B.buildRet();
  }
  Function *MainF = M.createFunction("main");
  {
    IRBuilder B(*MainF);
    B.startBlock("entry");
    VirtReg V = B.buildLoadImm(1);
    BasicBlock *H = MainF->createBlock("loop");
    B.buildBr(H);
    B.setInsertBlock(H);
    B.buildCall(Leaf, {});
    B.buildCall(Leaf, {}); // two call sites per iteration
    VirtReg C = B.buildCmp(V, V);
    BasicBlock *Exit = MainF->createBlock("exit");
    B.buildCondBr(C, H, Exit, 0.9); // ten iterations
    B.setInsertBlock(Exit);
    B.buildRet(V);
  }
  M.setEntryFunction(MainF);
  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  EXPECT_NEAR(Freq.entryFrequency(*MainF), 1.0, 1e-9);
  EXPECT_NEAR(Freq.entryFrequency(*Leaf), 20.0, 1e-6);
}

TEST(Frequency, EntryInvocationsScale) {
  SingleLoop L(0.9);
  L.M.setEntryFunction(L.F);
  FrequencyInfo Freq =
      FrequencyInfo::compute(L.M, FrequencyMode::Profile, 50.0);
  EXPECT_NEAR(Freq.entryFrequency(*L.F), 50.0, 1e-9);
  EXPECT_NEAR(Freq.blockFrequency(*L.Header), 500.0, 1e-4);
}

TEST(Frequency, ModeNames) {
  EXPECT_STREQ(frequencyModeName(FrequencyMode::Static), "static");
  EXPECT_STREQ(frequencyModeName(FrequencyMode::Profile), "dynamic");
}

/// The interprocedural loop of FrequencyInfo::compute as it was before call
/// sites were indexed: every pass rescans every instruction of every
/// function for calls to each callee. The indexed loop must reproduce its
/// entry frequencies bit for bit.
std::unordered_map<const Function *, double>
rescanEntryFrequencies(const Module &M, FrequencyMode Mode) {
  std::unordered_map<const Function *, std::vector<double>> Rel;
  std::unordered_map<const Function *, double> Inv;
  for (const auto &F : M.functions()) {
    Rel[F.get()] = computeRelativeBlockFrequencies(*F, Mode);
    Inv[F.get()] = 0.0;
  }
  const Function *Entry = M.getEntryFunction();
  const int MaxPasses = static_cast<int>(M.functions().size()) + 8;
  for (int Pass = 0; Pass < MaxPasses; ++Pass) {
    bool Changed = false;
    for (const auto &G : M.functions()) {
      double NewInv = (G.get() == Entry) ? 1.0 : 0.0;
      for (const auto &F : M.functions()) {
        if (F->isDeclaration())
          continue;
        for (const auto &BB : F->blocks())
          for (const Instruction &I : BB->instructions())
            if (I.isCall() && I.Callee == G.get())
              NewInv += Rel[F.get()][BB->getId()] * Inv[F.get()];
      }
      if (std::abs(NewInv - Inv[G.get()]) >
          1e-9 * std::max(1.0, std::abs(NewInv))) {
        Inv[G.get()] = NewInv;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
  return Inv;
}

/// Every function's entry frequency, declarations included, equals the
/// rescan reference bit for bit under both modes.
void expectEntryFrequenciesMatchRescan(const Module &M) {
  for (FrequencyMode Mode : {FrequencyMode::Static, FrequencyMode::Profile}) {
    SCOPED_TRACE(frequencyModeName(Mode));
    FrequencyInfo Freq = FrequencyInfo::compute(M, Mode);
    std::unordered_map<const Function *, double> Ref =
        rescanEntryFrequencies(M, Mode);
    for (const auto &F : M.functions())
      EXPECT_EQ(std::bit_cast<uint64_t>(Freq.entryFrequency(*F)),
                std::bit_cast<uint64_t>(Ref.at(F.get())))
          << F->getName() << ": " << Freq.entryFrequency(*F) << " vs "
          << Ref.at(F.get());
  }
}

TEST(Frequency, IndexedCallSitesMatchRescanOnLargeFuzzModules) {
  for (FuzzProfile Profile :
       {FuzzProfile::Mixed, FuzzProfile::CallDense, FuzzProfile::HighDegree,
        FuzzProfile::PathologicalLive}) {
    SCOPED_TRACE(fuzzProfileName(Profile));
    FuzzGenParams P;
    P.Seed = 3;
    P.Profile = Profile;
    P.SizeScale = 8;
    expectEntryFrequenciesMatchRescan(*generateFuzzModule(P));
  }
}

// Hand-built call graphs: a declaration called from two blocks, a callee
// called from several blocks of several callers, and a call to a function
// of another module (never counted).
TEST(Frequency, IndexedCallSitesMatchRescanOnSharedCallees) {
  Module M("m");
  Module Other("other");
  Function *Foreign = Other.createFunction("foreign");
  Function *Decl = M.createFunction("decl");
  Function *Leaf = M.createFunction("leaf");
  {
    IRBuilder B(*Leaf);
    B.startBlock("entry");
    B.buildCall(Decl, {});
    B.buildRet();
  }
  Function *Mid = M.createFunction("mid");
  Function *MainF = M.createFunction("main");
  for (Function *F : {Mid, MainF}) {
    IRBuilder B(*F);
    B.startBlock("entry");
    VirtReg V = B.buildLoadImm(1);
    B.buildCall(Leaf, {});
    BasicBlock *Loop = F->createBlock("loop");
    BasicBlock *Exit = F->createBlock("exit");
    B.buildBr(Loop);
    B.setInsertBlock(Loop);
    B.buildCall(Leaf, {});
    B.buildCall(Decl, {});
    B.buildCall(Foreign, {});
    if (F == MainF)
      B.buildCall(Mid, {});
    VirtReg C = B.buildCmp(V, V);
    B.buildCondBr(C, Loop, Exit, F == MainF ? 0.75 : 0.3);
    B.setInsertBlock(Exit);
    B.buildCall(Leaf, {});
    B.buildRet(V);
  }
  M.setEntryFunction(MainF);
  ASSERT_TRUE(Decl->isDeclaration());
  expectEntryFrequenciesMatchRescan(M);
  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  EXPECT_GT(Freq.entryFrequency(*Decl), Freq.entryFrequency(*Leaf));
}

// A recursive pair whose invocation counts grow every pass never
// converges: both loops stop at the pass cap with the same doubles.
TEST(Frequency, IndexedCallSitesMatchRescanAtPassCap) {
  Module M("m");
  Function *F = M.createFunction("f");
  Function *G = M.createFunction("g");
  Function *MainF = M.createFunction("main");
  {
    IRBuilder B(*F);
    B.startBlock("entry");
    B.buildCall(G, {});
    B.buildCall(G, {});
    B.buildRet();
  }
  {
    IRBuilder B(*G);
    B.startBlock("entry");
    B.buildCall(F, {});
    B.buildRet();
  }
  {
    IRBuilder B(*MainF);
    B.startBlock("entry");
    B.buildCall(F, {});
    B.buildRet();
  }
  M.setEntryFunction(MainF);
  expectEntryFrequenciesMatchRescan(M);
  // inv(f) = 1 + inv(g) and inv(g) = 2 inv(f): no fixpoint, so the counts
  // are still growing when the cap stops the loop.
  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  EXPECT_GT(Freq.entryFrequency(*F), 100.0);
}

// The grid path computes frequencies once on the source module and rekeys
// them onto each private clone. The remap must be a pure re-keying: every
// block and entry frequency bit-identical (same doubles, not just close)
// to a fresh computation on the clone.
TEST(Frequency, RemappedToCloneIsBitIdentical) {
  RandomProgramParams Params;
  Params.Seed = 11;
  Params.NumFunctions = 4;
  auto M = generateRandomProgram(Params);
  auto Clone = cloneModule(*M);

  for (FrequencyMode Mode : {FrequencyMode::Static, FrequencyMode::Profile}) {
    FrequencyInfo Source = FrequencyInfo::compute(*M, Mode);
    FrequencyInfo Remapped = Source.remappedTo(*M, *Clone);
    FrequencyInfo Fresh = FrequencyInfo::compute(*Clone, Mode);
    for (const auto &F : Clone->functions()) {
      if (F->isDeclaration())
        continue;
      EXPECT_EQ(Remapped.entryFrequency(*F), Fresh.entryFrequency(*F));
      for (const auto &BB : F->blocks())
        EXPECT_EQ(Remapped.blockFrequency(*BB), Fresh.blockFrequency(*BB));
    }
  }
}

// One compute per key, hits afterwards, and the cached baseline liveness
// is exact for the same-index function of a pristine clone (cloneModule
// preserves block ids and vreg numbering).
TEST(AnalysisCache, SharesFrequenciesAndBaselineLiveness) {
  RandomProgramParams Params;
  Params.Seed = 23;
  Params.NumFunctions = 3;
  auto M = generateRandomProgram(Params);
  auto Clone = cloneModule(*M);

  ModuleAnalysisCache Cache;
  bool Hit = true;
  const FrequencyInfo &F1 =
      Cache.frequencies(*M, FrequencyMode::Profile, &Hit);
  EXPECT_FALSE(Hit);
  const FrequencyInfo &F2 =
      Cache.frequencies(*M, FrequencyMode::Profile, &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(&F1, &F2); // one shared object, not a copy per caller

  // A different mode is a different key.
  Cache.frequencies(*M, FrequencyMode::Static, &Hit);
  EXPECT_FALSE(Hit);

  for (unsigned I = 0; I < M->functions().size(); ++I) {
    const Function &Fn = *M->functions()[I];
    if (Fn.isDeclaration())
      continue;
    const Liveness &Baseline = Cache.baselineLiveness(*M, I, &Hit);
    EXPECT_FALSE(Hit);
    EXPECT_TRUE(Baseline == Liveness::compute(Fn));
    // Exact for the pristine clone's same-index function too.
    EXPECT_TRUE(Baseline == Liveness::compute(*Clone->functions()[I]));
    Cache.baselineLiveness(*M, I, &Hit);
    EXPECT_TRUE(Hit);
  }

  ModuleAnalysisCache::Stats Stats = Cache.stats();
  EXPECT_EQ(Stats.FrequencyHits, 1u);
  EXPECT_EQ(Stats.FrequencyMisses, 2u);
  EXPECT_GT(Stats.LivenessHits, 0u);
  EXPECT_EQ(Stats.LivenessHits, Stats.LivenessMisses);
  EXPECT_EQ(Stats.hits(), Stats.FrequencyHits + Stats.LivenessHits);
  EXPECT_EQ(Stats.misses(), Stats.FrequencyMisses + Stats.LivenessMisses);
}

} // namespace
