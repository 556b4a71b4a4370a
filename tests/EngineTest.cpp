//===- tests/EngineTest.cpp - Allocation-engine driver tests --------------===//

#include "analysis/Frequency.h"
#include "core/EngineBuilder.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "workloads/SpecProxies.h"

#include <gtest/gtest.h>

using namespace ccra;

namespace {

struct SmallProgram {
  Module M{"m"};
  Function *Leaf, *MainF;
  VirtReg Hot, Cold;

  SmallProgram() {
    Leaf = M.createFunction("leaf");
    {
      IRBuilder B(*Leaf);
      B.startBlock("entry");
      B.buildRet();
    }
    MainF = M.createFunction("main");
    IRBuilder B(*MainF);
    B.startBlock("entry");
    Hot = B.buildLoadImm(1);
    Cold = B.buildLoadImm(2);
    BasicBlock *Loop = MainF->createBlock("loop");
    B.buildBr(Loop);
    B.setInsertBlock(Loop);
    B.buildBinaryInto(Hot, Opcode::Add, Hot, Hot);
    VirtReg C = B.buildCmp(Hot, Hot);
    BasicBlock *Exit = MainF->createBlock("exit");
    B.buildCondBr(C, Loop, Exit, 0.99);
    B.setInsertBlock(Exit);
    B.buildCall(Leaf, {});
    VirtReg Sum = B.buildBinary(Opcode::Add, Hot, Cold);
    B.buildRet(Sum);
    M.setEntryFunction(MainF);
    EXPECT_TRUE(verifyModule(M, nullptr));
  }
};

TEST(Engine, RecordsLocationsForEveryRegister) {
  SmallProgram P;
  FrequencyInfo Freq = FrequencyInfo::compute(P.M, FrequencyMode::Profile);
  AllocationEngine Engine = EngineBuilder(RegisterConfig(4, 2, 2, 2))
      .options(improvedOptions()).build();
  ModuleAllocationResult R = Engine.allocateModule(P.M, Freq);
  const FunctionAllocation &FA = R.PerFunction.at(P.MainF);
  ASSERT_EQ(FA.VRegLocations.size(), P.MainF->numVRegs());
  for (unsigned V = 0; V < P.MainF->numVRegs(); ++V)
    EXPECT_TRUE(FA.VRegLocations[V].has_value()) << 'v' << V;
}

TEST(Engine, LocationOfAbsentRegisterIsMemory) {
  FunctionAllocation FA;
  EXPECT_TRUE(FA.locationOf(VirtReg(0)).isMemory());
  FA.VRegLocations.resize(3);
  FA.VRegLocations[1] = Location::inRegister(PhysReg(RegBank::Int, 2));
  EXPECT_TRUE(FA.locationOf(VirtReg(0)).isMemory()) << "unrecorded entry";
  EXPECT_EQ(FA.locationOf(VirtReg(1)).Reg, PhysReg(RegBank::Int, 2));
  EXPECT_TRUE(FA.locationOf(VirtReg(3)).isMemory()) << "past the table";
  EXPECT_TRUE(FA.locationOf(VirtReg(VirtReg::InvalidId)).isMemory());

  SmallProgram P;
  FrequencyInfo Freq = FrequencyInfo::compute(P.M, FrequencyMode::Profile);
  AllocationEngine Engine = EngineBuilder(RegisterConfig(4, 2, 2, 2))
      .options(improvedOptions()).build();
  ModuleAllocationResult R = Engine.allocateModule(P.M, Freq);
  const FunctionAllocation &Main = R.PerFunction.at(P.MainF);
  EXPECT_TRUE(Main.locationOf(VirtReg(P.MainF->numVRegs())).isMemory());
  EXPECT_TRUE(Main.locationOf(P.Hot).isRegister());
}

TEST(Engine, DeclarationsAreSkipped) {
  Module M("m");
  M.createFunction("external_only");
  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  AllocationEngine Engine = EngineBuilder(RegisterConfig(4, 2, 0, 0))
      .options(baseChaitinOptions()).build();
  ModuleAllocationResult R = Engine.allocateModule(M, Freq);
  EXPECT_TRUE(R.PerFunction.empty());
  EXPECT_DOUBLE_EQ(R.Totals.total(), 0.0);
}

TEST(Engine, SingleRoundWhenNothingSpills) {
  SmallProgram P;
  FrequencyInfo Freq = FrequencyInfo::compute(P.M, FrequencyMode::Profile);
  AllocationEngine Engine = EngineBuilder(RegisterConfig(8, 4, 4, 2))
      .options(improvedOptions()).build();
  ModuleAllocationResult R = Engine.allocateModule(P.M, Freq);
  EXPECT_EQ(R.PerFunction.at(P.MainF).Rounds, 1u);
  EXPECT_EQ(R.PerFunction.at(P.MainF).SpilledRanges, 0u);
}

TEST(Engine, SpilledRegisterIsMappedToMemory) {
  // One register, three conflicting values: somebody lands in memory and
  // the location map says so.
  Module M("m");
  Function &F = *M.createFunction("main");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg C = B.buildLoadImm(2);
  VirtReg D = B.buildLoadImm(3);
  VirtReg S1 = B.buildBinary(Opcode::Add, A, C);
  VirtReg S2 = B.buildBinary(Opcode::Add, S1, D);
  B.buildRet(S2);
  M.setEntryFunction(&F);
  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  AllocationEngine Engine = EngineBuilder(RegisterConfig(2, 1, 0, 0))
      .options(baseChaitinOptions()).build();
  ModuleAllocationResult R = Engine.allocateModule(M, Freq);
  const FunctionAllocation &FA = R.PerFunction.at(&F);
  EXPECT_GE(FA.SpilledRanges, 1u);
  unsigned MemoryLocations = 0;
  for (VirtReg V : {A, C, D})
    MemoryLocations += FA.locationOf(V).isMemory() ? 1 : 0;
  EXPECT_GE(MemoryLocations, 1u);
  EXPECT_GT(FA.Costs.Spill, 0.0);
  // The rewritten function stays well-formed, with spill code present.
  EXPECT_TRUE(verifyModule(M, nullptr));
}

TEST(Engine, MaterializationCanBeDisabled) {
  SmallProgram P;
  FrequencyInfo Freq = FrequencyInfo::compute(P.M, FrequencyMode::Profile);
  AllocatorOptions Opts = baseChaitinOptions();
  Opts.MaterializeSaveRestore = false;
  AllocationEngine Engine =
      EngineBuilder(RegisterConfig(4, 2, 2, 2)).options(Opts).build();
  ModuleAllocationResult R = Engine.allocateModule(P.M, Freq);
  // Costs are still computed analytically...
  EXPECT_GT(R.Totals.total(), 0.0);
  // ...but no Save/Restore instructions were inserted.
  for (const auto &BB : P.MainF->blocks())
    for (const Instruction &I : BB->instructions())
      EXPECT_TRUE(I.Op != Opcode::Save && I.Op != Opcode::Restore);
}

TEST(Engine, CalleeRegsPaidMatchesBreakdown) {
  SmallProgram P;
  FrequencyInfo Freq = FrequencyInfo::compute(P.M, FrequencyMode::Profile);
  AllocationEngine Engine = EngineBuilder(RegisterConfig(2, 2, 2, 2))
      .options(baseChaitinOptions()).build();
  ModuleAllocationResult R = Engine.allocateModule(P.M, Freq);
  for (const auto &[F, FA] : R.PerFunction) {
    double EntryFreq = Freq.entryFrequency(*F);
    EXPECT_NEAR(FA.Costs.CalleeSave, 2.0 * EntryFreq * FA.CalleeRegsPaid,
                1e-9);
  }
}

TEST(Engine, ProxiesConvergeWithinAFewRounds) {
  for (const std::string &Name : specProxyNames()) {
    SCOPED_TRACE(Name);
    std::unique_ptr<Module> M = buildSpecProxy(Name);
    FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
    AllocationEngine Engine = EngineBuilder(minimalMipsConfig())
        .options(improvedOptions()).build();
    ModuleAllocationResult R = Engine.allocateModule(*M, Freq);
    for (const auto &[F, FA] : R.PerFunction) {
      (void)F;
      EXPECT_LE(FA.Rounds, 8u);
    }
  }
}

TEST(Engine, MachineDescriptionQueries) {
  MachineDescription MD(RegisterConfig(3, 2, 2, 1));
  EXPECT_EQ(MD.numRegs(RegBank::Int), 5u);
  EXPECT_EQ(MD.numRegs(RegBank::Float), 3u);
  EXPECT_TRUE(MD.isCallerSave(PhysReg(RegBank::Int, 2)));
  EXPECT_TRUE(MD.isCalleeSave(PhysReg(RegBank::Int, 3)));
  EXPECT_EQ(MD.callerSaveReg(RegBank::Int, 0), PhysReg(RegBank::Int, 0));
  EXPECT_EQ(MD.calleeSaveReg(RegBank::Int, 0), PhysReg(RegBank::Int, 3));
  EXPECT_EQ(MD.calleeSaveReg(RegBank::Float, 0), PhysReg(RegBank::Float, 2));
  EXPECT_EQ(RegisterConfig(3, 2, 2, 1).label(), "(3,2,2,1)");
  EXPECT_TRUE(RegisterConfig(3, 2, 2, 1) == RegisterConfig(3, 2, 2, 1));
  EXPECT_FALSE(RegisterConfig(3, 2, 2, 1) == RegisterConfig(3, 2, 1, 2));
  EXPECT_EQ(standardConfigSweep().size(), 17u);
  EXPECT_TRUE(standardConfigSweep().front() == minimalMipsConfig());
  EXPECT_TRUE(standardConfigSweep().back() == fullMipsConfig());
}

TEST(Engine, DescribeTags) {
  EXPECT_EQ(baseChaitinOptions().describe(), "base");
  EXPECT_EQ(optimisticOptions().describe(), "optimistic");
  EXPECT_EQ(improvedOptions().describe(), "SC+BS+PR");
  EXPECT_EQ(improvedOptions(true, false, false).describe(), "SC");
  EXPECT_EQ(improvedOptimisticOptions().describe(), "SC+BS+PR+opt");
  EXPECT_EQ(priorityOptions().describe(), "priority");
  EXPECT_EQ(cbhOptions().describe(), "CBH");
}

} // namespace
