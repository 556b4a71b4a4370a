//===- tests/AllocatorTest.cpp - Allocator behavior unit tests ------------===//
//
// Scenario-level tests of each allocator's decision rules, using
// hand-crafted live ranges with exact benefit values (TestUtil.h).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/AllocatorFactory.h"
#include "core/EngineBuilder.h"
#include "ir/IRParser.h"
#include "regalloc/AllocationVerifier.h"
#include "workloads/FuzzGen.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace ccra;

namespace {

RoundResult runOn(AllocationContext &Ctx, const AllocatorOptions &Opts) {
  RoundResult RR;
  createAllocator(Opts)->runRound(Ctx, RR);
  EXPECT_EQ(RR.Assignment.size(), Ctx.LRS.numRanges());
  return RR;
}

bool inCalleeSave(const AllocationContext &Ctx, const RoundResult &RR,
                  unsigned RangeId) {
  const Location &Loc = RR.Assignment[RangeId];
  return Loc.isRegister() && Ctx.MD.isCalleeSave(Loc.Reg);
}
bool inCallerSave(const AllocationContext &Ctx, const RoundResult &RR,
                  unsigned RangeId) {
  const Location &Loc = RR.Assignment[RangeId];
  return Loc.isRegister() && Ctx.MD.isCallerSave(Loc.Reg);
}
bool spilled(const RoundResult &RR, unsigned RangeId) {
  return RR.Assignment[RangeId].isMemory();
}

// --- Base model (§3.1) -------------------------------------------------------

TEST(BaseChaitin, CallCrossingPrefersCalleeSave) {
  ScenarioBuilder S(RegisterConfig(2, 0, 2, 0), /*EntryFreq=*/100);
  unsigned Crossing = S.addRange(RegBank::Int, 1000, 50, /*ContainsCall=*/true);
  unsigned Local = S.addRange(RegBank::Int, 1000, 0, /*ContainsCall=*/false);
  AllocationContext &Ctx = S.context();
  RoundResult RR = runOn(Ctx, baseChaitinOptions());
  EXPECT_TRUE(inCalleeSave(Ctx, RR, Crossing));
  EXPECT_TRUE(inCallerSave(Ctx, RR, Local));
}

TEST(BaseChaitin, FallsBackToOtherKindWhenPreferredExhausted) {
  // Three mutually conflicting crossing ranges, two callee-save registers:
  // the third range takes a caller-save register rather than spilling.
  ScenarioBuilder S(RegisterConfig(2, 0, 2, 0), 100);
  unsigned A = S.addRange(RegBank::Int, 1000, 50);
  unsigned B = S.addRange(RegBank::Int, 1000, 50);
  unsigned C = S.addRange(RegBank::Int, 1000, 50);
  S.addEdge(A, B);
  S.addEdge(B, C);
  S.addEdge(A, C);
  AllocationContext &Ctx = S.context();
  RoundResult RR = runOn(Ctx, baseChaitinOptions());
  unsigned Callee = 0, Caller = 0;
  for (unsigned Id : {A, B, C}) {
    Callee += inCalleeSave(Ctx, RR, Id);
    Caller += inCallerSave(Ctx, RR, Id);
  }
  EXPECT_EQ(Callee, 2u);
  EXPECT_EQ(Caller, 1u);
}

TEST(BaseChaitin, SpillsCheapestPerDegreeWhenBlocked) {
  // A 4-clique with 3 registers: simplification blocks; the victim is the
  // smallest spillCost/degree.
  ScenarioBuilder S(RegisterConfig(3, 0, 0, 0), 100);
  unsigned Cheap = S.addRange(RegBank::Int, 10, 0, false);
  unsigned E1 = S.addRange(RegBank::Int, 1000, 0, false);
  unsigned E2 = S.addRange(RegBank::Int, 1000, 0, false);
  unsigned E3 = S.addRange(RegBank::Int, 1000, 0, false);
  for (unsigned A : {Cheap, E1, E2, E3})
    for (unsigned B : {Cheap, E1, E2, E3})
      if (A < B)
        S.addEdge(A, B);
  AllocationContext &Ctx = S.context();
  RoundResult RR = runOn(Ctx, baseChaitinOptions());
  EXPECT_TRUE(spilled(RR, Cheap));
  EXPECT_FALSE(spilled(RR, E1));
  EXPECT_FALSE(spilled(RR, E2));
  EXPECT_FALSE(spilled(RR, E3));
}

// --- Storage-class analysis (§4) ------------------------------------------------

TEST(StorageClass, SpillsInsteadOfExpensiveCallerSave) {
  // benefitCaller < 0 and no callee-save register exists: memory beats the
  // caller-save register even though one is free.
  ScenarioBuilder S(RegisterConfig(4, 0, 0, 0), 100);
  unsigned Bait = S.addRange(RegBank::Int, /*Refs=*/500, /*CallerCost=*/2000);
  AllocationContext &Ctx = S.context();

  RoundResult Base = runOn(Ctx, baseChaitinOptions());
  EXPECT_TRUE(inCallerSave(Ctx, Base, Bait)); // the base model pays 2000

  RoundResult Improved = runOn(Ctx, improvedOptions());
  EXPECT_TRUE(spilled(Improved, Bait)); // SC pays 500 instead
  EXPECT_EQ(Improved.VoluntarySpills, 1u);
}

TEST(StorageClass, PrefersCallerSaveWhenCallsAreCold) {
  // Crossing a cold call: benefitCaller (refs - 2) beats benefitCallee
  // (refs - 200); the base model would burn a callee-save register.
  ScenarioBuilder S(RegisterConfig(2, 0, 2, 0), 100);
  unsigned ColdCrossing = S.addRange(RegBank::Int, 1000, /*CallerCost=*/2);
  AllocationContext &Ctx = S.context();

  RoundResult Base = runOn(Ctx, baseChaitinOptions());
  EXPECT_TRUE(inCalleeSave(Ctx, Base, ColdCrossing));

  RoundResult Improved = runOn(Ctx, improvedOptions());
  EXPECT_TRUE(inCallerSave(Ctx, Improved, ColdCrossing));
}

TEST(StorageClass, KeepsWorthwhileCalleeSaveResident) {
  ScenarioBuilder S(RegisterConfig(1, 0, 1, 0), 100); // calleeCost = 200
  unsigned Hot = S.addRange(RegBank::Int, 5000, /*CallerCost=*/4000);
  AllocationContext &Ctx = S.context();
  RoundResult RR = runOn(Ctx, improvedOptions());
  EXPECT_TRUE(inCalleeSave(Ctx, RR, Hot));
  EXPECT_EQ(RR.VoluntarySpills, 0u);
}

// --- Priority-based coloring (§9) ---------------------------------------------

TEST(Priority, NegativeBenefitGoesToMemory) {
  ScenarioBuilder S(RegisterConfig(4, 0, 4, 0), 100);
  unsigned Useless = S.addRange(RegBank::Int, 100, /*CallerCost=*/500);
  // benefitCaller = -400, benefitCallee = -100: memory is best.
  AllocationContext &Ctx = S.context();
  RoundResult RR = runOn(Ctx, priorityOptions());
  EXPECT_TRUE(spilled(RR, Useless));
}

TEST(Priority, HighPriorityWinsTheOnlyRegister) {
  ScenarioBuilder S(RegisterConfig(1, 0, 0, 0), 100);
  unsigned Low = S.addRange(RegBank::Int, 500, 0, false, /*NumBlocks=*/1);
  unsigned High = S.addRange(RegBank::Int, 5000, 0, false, /*NumBlocks=*/1);
  S.addEdge(Low, High);
  AllocationContext &Ctx = S.context();
  RoundResult RR = runOn(Ctx, priorityOptions());
  EXPECT_TRUE(inCallerSave(Ctx, RR, High));
  EXPECT_TRUE(spilled(RR, Low));
}

TEST(Priority, SizeNormalizationDemotesBigRanges) {
  // Chow's priority divides by size: a big live range with slightly larger
  // total benefit loses to a compact one.
  ScenarioBuilder S(RegisterConfig(1, 0, 0, 0), 100);
  unsigned Big = S.addRange(RegBank::Int, 1200, 0, false, /*NumBlocks=*/10);
  unsigned Small = S.addRange(RegBank::Int, 1000, 0, false, /*NumBlocks=*/1);
  S.addEdge(Big, Small);
  AllocationContext &Ctx = S.context();
  RoundResult RR = runOn(Ctx, priorityOptions());
  EXPECT_TRUE(inCallerSave(Ctx, RR, Small));
  EXPECT_TRUE(spilled(RR, Big));
}

TEST(Priority, AllOrderingsProduceValidAssignments) {
  for (PriorityOrdering Ordering :
       {PriorityOrdering::RemoveUnconstrained,
        PriorityOrdering::SortUnconstrained, PriorityOrdering::FullSort}) {
    ScenarioBuilder S(RegisterConfig(2, 0, 1, 0), 100);
    std::vector<unsigned> Ids;
    for (int I = 0; I < 5; ++I)
      Ids.push_back(S.addRange(RegBank::Int, 1000 + 100 * I, 300));
    for (unsigned A : Ids)
      for (unsigned B : Ids)
        if (A < B)
          S.addEdge(A, B);
    AllocationContext &Ctx = S.context();
    RoundResult RR = runOn(Ctx, priorityOptions(Ordering));
    AllocationVerifyReport Report = verifyAllocation(Ctx, RR, false);
    // Spills are allowed (5 ranges, 3 registers); register clashes are not.
    for (const std::string &E : Report.Errors)
      EXPECT_EQ(E.find("share register"), std::string::npos) << E;
  }
}

TEST(Priority, MovesReloadTempHoldersToColorAnUnspillableRange) {
  // A benchmark fuzz module (and its shrunk reproducer) at (6,4,0,0) with
  // profile frequencies: coloring in priority order left every float
  // register held by unspillable reload temps, so no neighbor could be
  // spilled and the arm aborted "cannot color unspillable reload temp".
  // Verify stays on, so an unsound assignment fails here too.
  std::ifstream In(std::string(CCRA_SOURCE_DIR) +
                   "/fuzz/corpus/"
                   "repro-call-dense-seed13776463903726723901.ccra");
  std::stringstream Text;
  Text << In.rdbuf();
  ParseResult Repro = parseModule(Text.str());
  ASSERT_TRUE(Repro.ok());
  FuzzGenParams Params;
  Params.Seed = 13776463903726723901ull;
  Params.Profile = FuzzProfile::CallDense;
  Params.SizeScale = 8;
  std::vector<std::unique_ptr<Module>> Modules;
  Modules.push_back(std::move(Repro.M));
  Modules.push_back(generateFuzzModule(Params));
  for (const std::unique_ptr<Module> &M : Modules) {
    FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
    AllocationEngine Engine = EngineBuilder(RegisterConfig(6, 4, 0, 0))
                                  .options(priorityOptions())
                                  .build();
    EXPECT_GT(Engine.allocateModule(*M, Freq).Totals.total(), 0.0);
  }
}

// --- CBH (§10) -------------------------------------------------------------------

TEST(CBH, CrossingRangeCannotUseCallerSave) {
  // One crossing range, zero callee-save registers: CBH must spill it even
  // though caller-save registers are free.
  ScenarioBuilder S(RegisterConfig(4, 0, 0, 0), 100);
  unsigned Crossing = S.addRange(RegBank::Int, 5000, 10);
  AllocationContext &Ctx = S.context();
  RoundResult RR = runOn(Ctx, cbhOptions());
  EXPECT_TRUE(spilled(RR, Crossing));

  // The improved allocator happily uses a caller-save register (cold call).
  RoundResult Improved = runOn(Ctx, improvedOptions());
  EXPECT_TRUE(inCallerSave(Ctx, Improved, Crossing));
}

TEST(CBH, UnlocksCalleeSaveWhenWorthIt) {
  ScenarioBuilder S(RegisterConfig(2, 0, 1, 0), 100); // save/restore = 200
  unsigned Crossing = S.addRange(RegBank::Int, 5000, 10);
  AllocationContext &Ctx = S.context();
  RoundResult RR = runOn(Ctx, cbhOptions());
  EXPECT_TRUE(inCalleeSave(Ctx, RR, Crossing));
  EXPECT_TRUE(RR.PayUnusedCallee);
  ASSERT_EQ(RR.ForcedCalleePaid.size(), 1u);
  EXPECT_TRUE(Ctx.MD.isCalleeSave(RR.ForcedCalleePaid[0]));
}

TEST(CBH, KeepsCalleeSaveLockedWhenSpillIsCheaper) {
  // The crossing range's spill code (10 ops) is cheaper than the
  // callee-save register's save/restore (2 x 100): CBH spills the range
  // and never unlocks the register.
  ScenarioBuilder S(RegisterConfig(2, 0, 1, 0), 100);
  unsigned Crossing = S.addRange(RegBank::Int, 10, 10);
  AllocationContext &Ctx = S.context();
  RoundResult RR = runOn(Ctx, cbhOptions());
  EXPECT_TRUE(spilled(RR, Crossing));
  EXPECT_TRUE(RR.ForcedCalleePaid.empty());
}

TEST(CBH, NonCrossingRangesUseCallerSaveFreely) {
  ScenarioBuilder S(RegisterConfig(2, 0, 1, 0), 100);
  unsigned Local = S.addRange(RegBank::Int, 5000, 0, /*ContainsCall=*/false);
  AllocationContext &Ctx = S.context();
  RoundResult RR = runOn(Ctx, cbhOptions());
  EXPECT_TRUE(inCallerSave(Ctx, RR, Local));
}

// --- Optimistic (§8) -----------------------------------------------------------

TEST(Optimistic, RescuesBlockedButColorableCycle) {
  // C4 cycle, one register per kind: every degree is 2 >= N=2, so plain
  // Chaitin spills a node; the cycle is 2-colorable, so optimistic
  // coloring places everything.
  ScenarioBuilder S(RegisterConfig(1, 0, 1, 0), 100);
  std::vector<unsigned> Ids;
  for (int I = 0; I < 4; ++I)
    Ids.push_back(S.addRange(RegBank::Int, 1000, 50));
  for (int I = 0; I < 4; ++I)
    S.addEdge(Ids[static_cast<size_t>(I)], Ids[static_cast<size_t>((I + 1) % 4)]);
  AllocationContext &Ctx = S.context();

  RoundResult Pessimistic = runOn(Ctx, baseChaitinOptions());
  unsigned PessimisticSpills = 0;
  for (unsigned Id : Ids)
    PessimisticSpills += spilled(Pessimistic, Id);
  EXPECT_GE(PessimisticSpills, 1u);

  RoundResult Optimistic = runOn(Ctx, optimisticOptions());
  for (unsigned Id : Ids)
    EXPECT_FALSE(spilled(Optimistic, Id));
}

// --- Verifier --------------------------------------------------------------------

TEST(AllocationVerifierTest, CatchesRegisterClash) {
  ScenarioBuilder S(RegisterConfig(2, 0, 0, 0), 100);
  unsigned A = S.addRange(RegBank::Int, 100, 0, false);
  unsigned B = S.addRange(RegBank::Int, 100, 0, false);
  S.addEdge(A, B);
  AllocationContext &Ctx = S.context();
  RoundResult RR;
  RR.Assignment.assign(2, Location::inRegister(PhysReg(RegBank::Int, 0)));
  AllocationVerifyReport Report = verifyAllocation(Ctx, RR, false);
  EXPECT_FALSE(Report.ok());
}

TEST(AllocationVerifierTest, CatchesWrongBank) {
  ScenarioBuilder S(RegisterConfig(2, 2, 0, 0), 100);
  unsigned A = S.addRange(RegBank::Float, 100, 0, false);
  (void)A;
  AllocationContext &Ctx = S.context();
  RoundResult RR;
  RR.Assignment.assign(1, Location::inRegister(PhysReg(RegBank::Int, 0)));
  AllocationVerifyReport Report = verifyAllocation(Ctx, RR, false);
  EXPECT_FALSE(Report.ok());
}

TEST(AllocationVerifierTest, AcceptsCleanAssignment) {
  ScenarioBuilder S(RegisterConfig(2, 0, 0, 0), 100);
  unsigned A = S.addRange(RegBank::Int, 100, 0, false);
  unsigned B = S.addRange(RegBank::Int, 100, 0, false);
  S.addEdge(A, B);
  AllocationContext &Ctx = S.context();
  RoundResult RR;
  RR.Assignment = {Location::inRegister(PhysReg(RegBank::Int, 0)),
                   Location::inRegister(PhysReg(RegBank::Int, 1))};
  EXPECT_TRUE(verifyAllocation(Ctx, RR, false).ok());
}

} // namespace
