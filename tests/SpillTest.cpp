//===- tests/SpillTest.cpp - Spill code & overhead materialization --------===//

#include "analysis/Frequency.h"
#include "analysis/Liveness.h"
#include "core/EngineBuilder.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "regalloc/Coalescer.h"
#include "regalloc/CostAccounting.h"
#include "regalloc/SpillCodeInserter.h"
#include "regalloc/VRegClasses.h"
#include "workloads/RandomProgram.h"
#include "workloads/SpecProxies.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ccra;

namespace {

// --- SpillCodeInserter ---------------------------------------------------------

struct SpillFixture {
  Module M{"m"};
  Function *F;
  VirtReg A, C, Sum;

  SpillFixture() {
    F = M.createFunction("main");
    IRBuilder B(*F);
    B.startBlock("entry");
    A = B.buildLoadImm(1); // will be spilled
    C = B.buildLoadImm(2);
    Sum = B.buildBinary(Opcode::Add, A, C);
    B.buildBinaryInto(Sum, Opcode::Add, A, A); // two uses of A in one instr
    B.buildRet(Sum);
    M.setEntryFunction(F);
  }
};

TEST(SpillCodeInserter, RewritesDefsAndUses) {
  SpillFixture Fx;
  SpillCodeInserter::Stats Stats =
      SpillCodeInserter::run(*Fx.F, {{Fx.A}});
  EXPECT_EQ(Stats.RangesSpilled, 1u);
  EXPECT_EQ(Stats.StoresInserted, 1u); // one def
  EXPECT_EQ(Stats.LoadsInserted, 2u);  // two using instructions
  EXPECT_TRUE(verifyModule(Fx.M, nullptr));

  // The spilled register must no longer occur anywhere.
  for (const auto &BB : Fx.F->blocks())
    for (const Instruction &I : BB->instructions()) {
      for (VirtReg D : I.Defs)
        EXPECT_NE(D, Fx.A);
      for (VirtReg U : I.Uses)
        EXPECT_NE(U, Fx.A);
    }
}

TEST(SpillCodeInserter, SingleReloadForMultipleUsesInOneInstruction) {
  SpillFixture Fx;
  SpillCodeInserter::run(*Fx.F, {{Fx.A}});
  // The "Sum = A + A" instruction must use one reload temp twice, fed by a
  // single spill.load.
  const auto &Insts = Fx.F->getEntryBlock()->instructions();
  unsigned Loads = 0;
  for (const Instruction &I : Insts)
    Loads += (I.Op == Opcode::SpillLoad) ? 1 : 0;
  EXPECT_EQ(Loads, 2u);
}

TEST(SpillCodeInserter, StoreFollowsDefiningInstruction) {
  SpillFixture Fx;
  SpillCodeInserter::run(*Fx.F, {{Fx.A}});
  const auto &Insts = Fx.F->getEntryBlock()->instructions();
  // Pattern: loadimm(temp); spill.store temp ...
  ASSERT_GE(Insts.size(), 2u);
  EXPECT_EQ(Insts[0].Op, Opcode::LoadImm);
  EXPECT_EQ(Insts[1].Op, Opcode::SpillStore);
  EXPECT_EQ(Insts[1].Uses[0], Insts[0].Defs[0]);
  EXPECT_EQ(Insts[1].Overhead, OverheadKind::Spill);
}

TEST(SpillCodeInserter, TempsAreUnspillable) {
  SpillFixture Fx;
  SpillCodeInserter::run(*Fx.F, {{Fx.A}});
  for (const auto &BB : Fx.F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.Op == Opcode::SpillLoad) {
        EXPECT_TRUE(Fx.F->isSpillTemp(I.Defs[0]));
      }
}

TEST(SpillCodeInserter, DistinctSlotsPerClass) {
  SpillFixture Fx;
  SpillCodeInserter::run(*Fx.F, {{Fx.A}, {Fx.C}});
  unsigned Slots[2] = {~0u, ~0u};
  for (const auto &BB : Fx.F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.Op == Opcode::SpillLoad || I.Op == Opcode::SpillStore) {
        ASSERT_LT(I.SpillSlot, 2u);
        Slots[I.SpillSlot] = I.SpillSlot;
      }
  EXPECT_EQ(Slots[0], 0u);
  EXPECT_EQ(Slots[1], 1u);
}

TEST(SpillCodeInserter, ReloadBeforeTerminatorUse) {
  Module M("m");
  Function &F = *M.createFunction("main");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg C = B.buildCmp(A, A);
  BasicBlock *T = F.createBlock("t");
  BasicBlock *E = F.createBlock("e");
  B.buildCondBr(C, T, E, 0.5);
  B.setInsertBlock(T);
  B.buildRet(A);
  B.setInsertBlock(E);
  B.buildRet(A);
  M.setEntryFunction(&F);
  SpillCodeInserter::run(F, {{C}});
  EXPECT_TRUE(verifyModule(M, nullptr));
  // The reload must precede the condbr inside the entry block.
  const auto &Insts = F.getEntryBlock()->instructions();
  ASSERT_GE(Insts.size(), 2u);
  EXPECT_EQ(Insts[Insts.size() - 2].Op, Opcode::SpillLoad);
  EXPECT_EQ(Insts.back().Op, Opcode::CondBr);
  EXPECT_EQ(Insts.back().Uses[0], Insts[Insts.size() - 2].Defs[0]);
}

// --- Liveness across a spill -------------------------------------------------------
//
// The engine seeds every spill round's coalescer with the previous round's
// liveness as SpillCodeInserter patched it; the patch must equal a fresh
// dataflow run, whether or not copies are left in the code.

bool hasCopies(const Function &F) {
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      if (I.isMove())
        return true;
  return false;
}

TEST(SpillLiveness, PatchedEqualsFreshOnHandBuiltFunction) {
  // Values live across a call and a block boundary, one of them copied;
  // spilling a cross-block value clears its bits, and the reload
  // temporaries stay block-local.
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
  VirtReg Copy = B.buildMove(Pool[2]);
  B.buildCall(Leaf, {});
  BasicBlock *Next = F.createBlock("next");
  B.buildBr(Next);
  B.setInsertBlock(Next);
  VirtReg Acc = Copy;
  for (VirtReg V : Pool)
    Acc = B.buildBinary(Opcode::Add, Acc, V);
  B.buildRet(Acc);
  M.setEntryFunction(&F);

  Liveness LV = Liveness::compute(F);
  ASSERT_TRUE(LV.liveOut(*F.getEntryBlock()).test(Pool[1].Id));
  SpillCodeInserter::run(F, {{Pool[1]}}, &LV);
  EXPECT_EQ(LV.numVRegs(), F.numVRegs());
  EXPECT_FALSE(LV.liveOut(*F.getEntryBlock()).test(Pool[1].Id));
  EXPECT_TRUE(LV == Liveness::compute(F));
}

TEST(SpillLiveness, PatchedEqualsFreshOnRandomPrograms) {
  // Coalesce as an engine round does, spill the two highest-degree
  // spillable ranges (every member register), and compare. Conservative
  // coalescing keeps some copies, so the programs generated with copies
  // exercise spill rounds that still hold them.
  MachineDescription MD{RegisterConfig(4, 2, 2, 2)};
  unsigned WithCopies = 0, WithoutCopies = 0;
  for (bool UseMoves : {false, true})
    for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << Seed << " moves " << UseMoves);
      RandomProgramParams Params;
      Params.Seed = Seed;
      Params.UseMoves = UseMoves;
      std::unique_ptr<Module> M = generateRandomProgram(Params);
      FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);

      for (const auto &FPtr : M->functions()) {
        Function &F = *FPtr;
        if (F.isDeclaration())
          continue;
        VRegClasses Classes(F.numVRegs());
        Liveness LV;
        LiveRangeSet LRS;
        InterferenceGraph IG;
        Coalescer::run(F, Classes, MD, Freq, LV, CoalesceRequest(), LRS, IG);

        std::vector<unsigned> ByDegree;
        for (unsigned I = 0; I < LRS.numRanges(); ++I)
          if (!LRS.range(I).NoSpill)
            ByDegree.push_back(I);
        std::stable_sort(ByDegree.begin(), ByDegree.end(),
                         [&](unsigned A, unsigned B) {
                           return IG.degree(A) > IG.degree(B);
                         });
        ByDegree.resize(std::min<size_t>(2, ByDegree.size()));
        if (ByDegree.empty())
          continue;

        std::vector<std::vector<VirtReg>> SpillClasses;
        for (unsigned Id : ByDegree) {
          std::vector<VirtReg> Members;
          for (unsigned V = 0; V < F.numVRegs(); ++V)
            if (LRS.rangeIdOf(VirtReg(V)) == static_cast<int>(Id))
              Members.push_back(VirtReg(V));
          SpillClasses.push_back(std::move(Members));
        }
        ++(hasCopies(F) ? WithCopies : WithoutCopies);
        SpillCodeInserter::run(F, SpillClasses, &LV);
        EXPECT_TRUE(LV == Liveness::compute(F)) << '@' << F.getName();
      }
    }
  EXPECT_GT(WithCopies, 0u);
  EXPECT_GT(WithoutCopies, 0u);
}

// --- End-to-end spill + materialization ------------------------------------------

TEST(OverheadMaterialization, SaveRestoreBracketsCalls) {
  // One value live across a call, few registers so it lands caller-save.
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
  VirtReg A = B.buildLoadImm(1);
  B.buildCall(Leaf, {});
  B.buildRet(A);
  M.setEntryFunction(&F);

  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  // No callee-save registers: A must live in a caller-save register.
  AllocationEngine Engine =
      EngineBuilder(RegisterConfig(4, 2, 0, 0))
          .options(baseChaitinOptions()).build();
  Engine.allocateModule(M, Freq);

  const auto &Insts = F.getEntryBlock()->instructions();
  // Expected: loadimm, save, call, restore, ret.
  std::vector<Opcode> Ops;
  for (const Instruction &I : Insts)
    Ops.push_back(I.Op);
  EXPECT_EQ(Ops, (std::vector<Opcode>{Opcode::LoadImm, Opcode::Save,
                                      Opcode::Call, Opcode::Restore,
                                      Opcode::Ret}));
  EXPECT_EQ(Insts[1].Overhead, OverheadKind::CallerSave);
  EXPECT_EQ(Insts[1].Phys, Insts[3].Phys);
}

TEST(OverheadMaterialization, CalleeSavePrologueEpilogue) {
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
  VirtReg A = B.buildLoadImm(1);
  B.buildCall(Leaf, {});
  B.buildRet(A);
  M.setEntryFunction(&F);

  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  // Only callee-save registers available beyond none caller: force A into
  // a callee-save register by having zero... caller-save registers must
  // exist (config minimum); use base model which prefers callee-save for
  // call-crossing ranges.
  AllocationEngine Engine =
      EngineBuilder(RegisterConfig(2, 2, 2, 2))
          .options(baseChaitinOptions()).build();
  Engine.allocateModule(M, Freq);

  const auto &Insts = F.getEntryBlock()->instructions();
  EXPECT_EQ(Insts.front().Op, Opcode::Save);
  EXPECT_EQ(Insts.front().Overhead, OverheadKind::CalleeSave);
  // Restore sits just before the ret.
  EXPECT_EQ(Insts[Insts.size() - 2].Op, Opcode::Restore);
  EXPECT_EQ(Insts[Insts.size() - 2].Overhead, OverheadKind::CalleeSave);
  EXPECT_EQ(Insts.back().Op, Opcode::Ret);
}

TEST(CostAccounting, MeasuredEqualsAnalyticOnProxies) {
  // The two independent cost paths — reading tagged overhead instructions
  // off the final code vs deriving caller/callee components from the
  // assignment — must agree for every program and allocator.
  for (const std::string &Name : {std::string("eqntott"), std::string("li"),
                                  std::string("fpppp"),
                                  std::string("tomcatv")}) {
    for (const AllocatorOptions &Opts :
         {baseChaitinOptions(), improvedOptions(), cbhOptions()}) {
      std::unique_ptr<Module> M = buildSpecProxy(Name);
      FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
      AllocationEngine Engine = EngineBuilder(RegisterConfig(9, 7, 3, 3))
          .options(Opts).build();
      ModuleAllocationResult Result = Engine.allocateModule(*M, Freq);

      CostBreakdown Measured;
      for (const auto &F : M->functions())
        Measured += measureCostFromCode(*F, Freq);

      EXPECT_NEAR(Measured.Spill, Result.Totals.Spill,
                  1e-6 * (1 + Result.Totals.Spill))
          << Name << ' ' << Opts.describe();
      EXPECT_NEAR(Measured.CallerSave, Result.Totals.CallerSave,
                  1e-6 * (1 + Result.Totals.CallerSave))
          << Name << ' ' << Opts.describe();
      EXPECT_NEAR(Measured.CalleeSave, Result.Totals.CalleeSave,
                  1e-6 * (1 + Result.Totals.CalleeSave))
          << Name << ' ' << Opts.describe();
    }
  }
}

TEST(SpillIteration, ConvergesUnderExtremePressure) {
  // Minimal register file on a high-pressure program: several spill
  // rounds, and the result still verifies (the engine aborts otherwise).
  std::unique_ptr<Module> M = buildSpecProxy("fpppp");
  FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
  AllocationEngine Engine = EngineBuilder(minimalMipsConfig())
      .options(baseChaitinOptions()).build();
  ModuleAllocationResult Result = Engine.allocateModule(*M, Freq);
  unsigned MaxRounds = 0;
  for (const auto &[F, FA] : Result.PerFunction) {
    (void)F;
    MaxRounds = std::max(MaxRounds, FA.Rounds);
  }
  EXPECT_GE(MaxRounds, 2u); // spilling actually happened
  EXPECT_TRUE(verifyModule(*M, nullptr));
}

} // namespace
