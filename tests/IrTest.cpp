//===- tests/IrTest.cpp - IR substrate unit tests -------------------------===//

#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

using namespace ccra;

namespace {

std::string printToString(const Module &M) {
  std::ostringstream OS;
  printModule(M, OS);
  return OS.str();
}

// --- Opcode properties -------------------------------------------------------

TEST(Opcode, PropertyTable) {
  EXPECT_TRUE(getOpcodeInfo(Opcode::Br).IsTerminator);
  EXPECT_TRUE(getOpcodeInfo(Opcode::CondBr).IsTerminator);
  EXPECT_TRUE(getOpcodeInfo(Opcode::Ret).IsTerminator);
  EXPECT_FALSE(getOpcodeInfo(Opcode::Call).IsTerminator);
  EXPECT_TRUE(getOpcodeInfo(Opcode::Call).IsCall);
  EXPECT_TRUE(getOpcodeInfo(Opcode::Move).IsMove);
  EXPECT_TRUE(getOpcodeInfo(Opcode::FMove).IsMove);
  EXPECT_TRUE(getOpcodeInfo(Opcode::SpillLoad).IsOverhead);
  EXPECT_TRUE(getOpcodeInfo(Opcode::SpillLoad).IsMemory);
  EXPECT_TRUE(getOpcodeInfo(Opcode::Save).IsOverhead);
  EXPECT_TRUE(getOpcodeInfo(Opcode::ShuffleMove).IsOverhead);
  EXPECT_FALSE(getOpcodeInfo(Opcode::Add).IsOverhead);
  EXPECT_TRUE(getOpcodeInfo(Opcode::Load).IsMemory);
  EXPECT_FALSE(getOpcodeInfo(Opcode::Add).IsMemory);
}

// --- Builder shapes ----------------------------------------------------------

class BuilderTest : public ::testing::Test {
protected:
  BuilderTest() : F(*M.createFunction("f")), B(F) { B.startBlock("entry"); }

  Module M{"m"};
  Function &F;
  IRBuilder B;
};

TEST_F(BuilderTest, ArithmeticBanks) {
  VirtReg I1 = B.buildLoadImm(1);
  VirtReg I2 = B.buildLoadImm(2);
  VirtReg Sum = B.buildBinary(Opcode::Add, I1, I2);
  EXPECT_EQ(F.vregBank(Sum), RegBank::Int);

  VirtReg F1 = B.buildFLoadImm(1);
  VirtReg F2 = B.buildFLoadImm(2);
  VirtReg FSum = B.buildBinary(Opcode::FAdd, F1, F2);
  EXPECT_EQ(F.vregBank(FSum), RegBank::Float);

  VirtReg Cmp = B.buildFCmp(F1, F2);
  EXPECT_EQ(F.vregBank(Cmp), RegBank::Int);

  VirtReg Cvt = B.buildCvtIntToFloat(I1);
  EXPECT_EQ(F.vregBank(Cvt), RegBank::Float);
  VirtReg Back = B.buildCvtFloatToInt(Cvt);
  EXPECT_EQ(F.vregBank(Back), RegBank::Int);
}

TEST_F(BuilderTest, MovesAreCoalescable) {
  VirtReg V = B.buildLoadImm(7);
  VirtReg Copy = B.buildMove(V);
  const Instruction &I = B.getInsertBlock()->instructions().back();
  EXPECT_TRUE(I.isMove());
  EXPECT_EQ(I.moveSource(), V);
  EXPECT_EQ(I.moveDest(), Copy);
}

TEST_F(BuilderTest, CallCarriesArgsAndResults) {
  Function *Callee = M.createFunction("g");
  VirtReg Arg = B.buildLoadImm(3);
  std::vector<VirtReg> Results =
      B.buildCall(Callee, {Arg}, {RegBank::Int, RegBank::Float});
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(F.vregBank(Results[0]), RegBank::Int);
  EXPECT_EQ(F.vregBank(Results[1]), RegBank::Float);
  const Instruction &I = B.getInsertBlock()->instructions().back();
  EXPECT_TRUE(I.isCall());
  EXPECT_EQ(I.Callee, Callee);
  EXPECT_EQ(I.Uses.size(), 1u);
  EXPECT_EQ(I.Defs.size(), 2u);
}

TEST_F(BuilderTest, CondBrRecordsProbabilities) {
  BasicBlock *Then = F.createBlock("then");
  BasicBlock *Else = F.createBlock("else");
  VirtReg A = B.buildLoadImm(1);
  VirtReg C = B.buildCmp(A, A);
  B.buildCondBr(C, Then, Else, 0.25);
  const auto &Succs = F.getEntryBlock()->successors();
  ASSERT_EQ(Succs.size(), 2u);
  EXPECT_DOUBLE_EQ(Succs[0].Probability, 0.25);
  EXPECT_DOUBLE_EQ(Succs[1].Probability, 0.75);
  EXPECT_EQ(Then->predecessors().size(), 1u);
  EXPECT_EQ(Else->predecessors().size(), 1u);
}

TEST_F(BuilderTest, SpillTempsAreFlagged) {
  VirtReg Normal = F.createVReg(RegBank::Int);
  VirtReg Temp = F.createSpillTemp(RegBank::Float);
  EXPECT_FALSE(F.isSpillTemp(Normal));
  EXPECT_TRUE(F.isSpillTemp(Temp));
  EXPECT_EQ(F.vregBank(Temp), RegBank::Float);
}

TEST_F(BuilderTest, SpillSlotsCount) {
  EXPECT_EQ(F.createSpillSlot(), 0u);
  EXPECT_EQ(F.createSpillSlot(), 1u);
  EXPECT_EQ(F.numSpillSlots(), 2u);
}

// --- Module -------------------------------------------------------------------

TEST(ModuleTest, LookupAndEntry) {
  Module M("m");
  Function *A = M.createFunction("a");
  Function *MainF = M.createFunction("main");
  EXPECT_EQ(M.getFunction("a"), A);
  EXPECT_EQ(M.getFunction("nope"), nullptr);
  EXPECT_EQ(M.getEntryFunction(), MainF); // defaults to "main"
  M.setEntryFunction(A);
  EXPECT_EQ(M.getEntryFunction(), A);
}

TEST(ModuleTest, DeclarationHasNoBody) {
  Module M("m");
  Function *External = M.createFunction("ext");
  EXPECT_TRUE(External->isDeclaration());
  External->createBlock("entry");
  EXPECT_FALSE(External->isDeclaration());
}

// --- Verifier -------------------------------------------------------------------

TEST(VerifierTest, AcceptsWellFormed) {
  Module M("m");
  Function &F = *M.createFunction("f");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg V = B.buildLoadImm(1);
  B.buildRet(V);
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyFunction(F, &Errors)) << Errors.front();
}

TEST(VerifierTest, RejectsUnterminatedBlock) {
  Module M("m");
  Function &F = *M.createFunction("f");
  IRBuilder B(F);
  B.startBlock("entry");
  B.buildLoadImm(1);
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(F, &Errors));
  EXPECT_NE(Errors.front().find("not terminated"), std::string::npos);
}

TEST(VerifierTest, RejectsUseWithoutDef) {
  Module M("m");
  Function &F = *M.createFunction("f");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg Ghost = F.createVReg(RegBank::Int);
  B.buildRet(Ghost);
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(F, &Errors));
}

TEST(VerifierTest, ReportsOutOfRangeRegisterAndUndefinedUseTogether) {
  // One instruction names a register past numVRegs(), another uses an
  // in-range register nothing defines: both are reported, and the
  // def-before-use check does not index past its per-register table.
  Module M("m");
  Function &F = *M.createFunction("f");
  BasicBlock *Entry = F.createBlock("entry");
  VirtReg Ghost = F.createVReg(RegBank::Int);
  Instruction Wild(Opcode::LoadImm);
  Wild.Defs.push_back(VirtReg(F.numVRegs() + 1000));
  Entry->append(std::move(Wild));
  Instruction WildUse(Opcode::Move);
  WildUse.Defs.push_back(Ghost);
  WildUse.Uses.push_back(VirtReg(F.numVRegs() + 7));
  Entry->append(std::move(WildUse));
  Instruction Ret(Opcode::Ret);
  VirtReg Undefined = F.createVReg(RegBank::Int);
  Ret.Uses.push_back(Undefined);
  Entry->append(std::move(Ret));

  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(F, &Errors));
  auto Reported = [&](const std::string &Text) {
    return std::count_if(Errors.begin(), Errors.end(), [&](const auto &E) {
      return E.find(Text) != std::string::npos;
    });
  };
  EXPECT_EQ(Reported("references out-of-range register"), 2);
  EXPECT_EQ(Reported("used but never defined"), 1);
  EXPECT_EQ(Reported(formatVReg(F, Undefined) + " used but never defined"),
            1);
}

TEST(VerifierTest, RejectsBadProbabilitySum) {
  Module M("m");
  Function &F = *M.createFunction("f");
  BasicBlock *Entry = F.createBlock("entry");
  BasicBlock *Next = F.createBlock("next");
  Instruction Ret(Opcode::Ret);
  Next->append(std::move(Ret));
  Instruction Cond(Opcode::CondBr);
  Instruction Imm(Opcode::LoadImm);
  VirtReg C = F.createVReg(RegBank::Int);
  Imm.Defs.push_back(C);
  Entry->append(std::move(Imm));
  Cond.Uses.push_back(C);
  Entry->append(std::move(Cond));
  Entry->addSuccessor(Next, 0.4);
  Entry->addSuccessor(Next, 0.4); // sums to 0.8
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(F, &Errors));
}

TEST(VerifierTest, RejectsCycleWithoutExit) {
  // The loop's only exit has probability 0, so the block-frequency system
  // is singular; the solve used to assert on it after verification passed.
  auto LoopModule = [](const std::string &LoopSuccs) {
    ParseResult R = parseModule(
        "module m\nfunc @main {\nentry:\n  %i0 = loadimm 1\n  br\n"
        "  ; succs: loop(1)\nloop:\n  %i1 = cmp %i0, %i0\n  condbr %i1\n"
        "  ; succs: " +
        LoopSuccs + "\ndone:\n  ret %i0\n}\n");
    EXPECT_TRUE(R.ok());
    return std::move(R.M);
  };
  // An exit too small to survive 1 - 1 in doubles is no exit, and an
  // excess over 1 can cancel one: both leave the system singular too.
  for (const auto &[Succs, Why] :
       {std::pair<std::string, std::string>{"loop(1) done(0)",
                                            "cannot reach a 'ret'"},
        {"loop(1) done(1e-300)", "cannot reach a 'ret'"},
        {"loop(1) done(1e-7)", "probabilities sum to"}}) {
    SCOPED_TRACE(Succs);
    std::vector<std::string> Errors;
    std::unique_ptr<Module> Trapped = LoopModule(Succs);
    ASSERT_TRUE(Trapped);
    EXPECT_FALSE(verifyModule(*Trapped, &Errors));
    ASSERT_FALSE(Errors.empty());
    EXPECT_NE(Errors.front().find(Why), std::string::npos) << Errors.front();
  }

  // A real exit makes it admissible.
  std::unique_ptr<Module> Exiting = LoopModule("loop(0.75) done(0.25)");
  ASSERT_TRUE(Exiting);
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*Exiting, &Errors)) << Errors.front();
}

TEST(VerifierTest, RejectsWrongOperandBank) {
  Module M("m");
  Function &F = *M.createFunction("f");
  BasicBlock *Entry = F.createBlock("entry");
  VirtReg FV = F.createVReg(RegBank::Float);
  Instruction FImm(Opcode::FLoadImm);
  FImm.Defs.push_back(FV);
  Entry->append(std::move(FImm));
  Instruction Add(Opcode::Add); // integer add over a float operand
  VirtReg D = F.createVReg(RegBank::Int);
  Add.Defs.push_back(D);
  Add.Uses.push_back(FV);
  Add.Uses.push_back(FV);
  Entry->append(std::move(Add));
  Entry->append(Instruction(Opcode::Ret));
  std::vector<std::string> Errors;
  EXPECT_FALSE(verifyFunction(F, &Errors));
}

TEST(VerifierTest, DeclarationsAlwaysVerify) {
  Module M("m");
  M.createFunction("ext");
  EXPECT_TRUE(verifyModule(M, nullptr));
}

// --- Printer ---------------------------------------------------------------------

TEST(PrinterTest, FormatsRegistersByBank) {
  Module M("m");
  Function &F = *M.createFunction("f");
  VirtReg I = F.createVReg(RegBank::Int);
  VirtReg Fl = F.createVReg(RegBank::Float);
  EXPECT_EQ(formatVReg(F, I), "%i0");
  EXPECT_EQ(formatVReg(F, Fl), "%f1");
  EXPECT_EQ(formatPhysReg(PhysReg(RegBank::Int, 3)), "r3");
  EXPECT_EQ(formatPhysReg(PhysReg(RegBank::Float, 2)), "fp2");
}

TEST(PrinterTest, ModuleOutputContainsStructure) {
  Module M("demo");
  Function &F = *M.createFunction("f");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg V = B.buildLoadImm(42);
  B.buildRet(V);
  std::string Text = printToString(M);
  EXPECT_NE(Text.find("module demo"), std::string::npos);
  EXPECT_NE(Text.find("func @f"), std::string::npos);
  EXPECT_NE(Text.find("loadimm 42"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

// --- Cloner -----------------------------------------------------------------------

TEST(ClonerTest, CloneIsTextuallyIdentical) {
  Module M("m");
  Function *Leaf = M.createFunction("leaf");
  {
    IRBuilder B(*Leaf);
    B.startBlock("entry");
    B.buildRet();
  }
  Function &F = *M.createFunction("main");
  {
    IRBuilder B(F);
    B.startBlock("entry");
    VirtReg V = B.buildLoadImm(1);
    BasicBlock *Loop = F.createBlock("loop");
    B.buildBr(Loop);
    B.setInsertBlock(Loop);
    VirtReg C = B.buildCmp(V, V);
    B.buildCall(Leaf, {V});
    BasicBlock *Exit = F.createBlock("exit");
    B.buildCondBr(C, Loop, Exit, 0.9);
    B.setInsertBlock(Exit);
    B.buildRet(V);
  }
  auto Clone = cloneModule(M);
  EXPECT_EQ(printToString(M), printToString(*Clone));
  EXPECT_TRUE(verifyModule(*Clone, nullptr));

  // Call targets were remapped into the clone, not shared.
  const Function *ClonedMain = Clone->getFunction("main");
  for (const auto &BB : ClonedMain->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.isCall()) {
        EXPECT_EQ(I.Callee, Clone->getFunction("leaf"));
      }
}

TEST(ClonerTest, MutatingCloneLeavesOriginalIntact) {
  Module M("m");
  Function &F = *M.createFunction("main");
  IRBuilder B(F);
  B.startBlock("entry");
  B.buildRet(B.buildLoadImm(5));
  std::string Before = printToString(M);

  auto Clone = cloneModule(M);
  Clone->getFunction("main")
      ->getEntryBlock()
      ->instructions()
      .front()
      .Imm = 99;
  EXPECT_EQ(printToString(M), Before);
  EXPECT_NE(printToString(*Clone), Before);
}

// --- RegList ---------------------------------------------------------------

RegList regList(std::initializer_list<unsigned> Ids) {
  RegList L;
  for (unsigned Id : Ids)
    L.push_back(VirtReg(Id));
  return L;
}

std::vector<unsigned> idsOf(const RegList &L) {
  std::vector<unsigned> Ids;
  for (VirtReg R : L)
    Ids.push_back(R.Id);
  return Ids;
}

TEST(RegList, GrowsFromInlineToHeap) {
  RegList L;
  EXPECT_TRUE(L.empty());
  EXPECT_TRUE(L.isInline());
  L.push_back(VirtReg(7));
  L.push_back(VirtReg(8));
  EXPECT_TRUE(L.isInline()) << "two registers fit inline";
  L.push_back(VirtReg(9));
  EXPECT_FALSE(L.isInline());
  for (unsigned Id = 10; Id < 40; ++Id)
    L.push_back(VirtReg(Id));
  ASSERT_EQ(L.size(), 33u);
  for (unsigned I = 0; I < L.size(); ++I)
    EXPECT_EQ(L[I].Id, 7 + I);

  RegList R;
  R.reserve(5);
  EXPECT_FALSE(R.isInline()) << "reserving past two allocates";
  EXPECT_TRUE(R.empty());
}

TEST(RegList, CopyIsDeepInlineAndOnHeap) {
  for (unsigned N : {1u, 2u, 3u, 9u}) {
    RegList A;
    for (unsigned I = 0; I < N; ++I)
      A.push_back(VirtReg(I));
    RegList B(A);
    EXPECT_EQ(A, B);
    B[0] = VirtReg(100);
    EXPECT_EQ(A[0].Id, 0u) << "copy shares storage at size " << N;
    RegList C = regList({5, 6, 7, 8});
    C = A;
    EXPECT_EQ(idsOf(C), idsOf(A));
    C.push_back(VirtReg(42));
    EXPECT_EQ(A.size(), N);
  }
}

TEST(RegList, MoveStealsHeapAndCopiesInline) {
  RegList Heap = regList({1, 2, 3, 4});
  const VirtReg *Storage = Heap.begin();
  RegList Moved(std::move(Heap));
  EXPECT_EQ(Moved.begin(), Storage) << "heap block moves, not copies";
  EXPECT_EQ(idsOf(Moved), (std::vector<unsigned>{1, 2, 3, 4}));
  EXPECT_TRUE(Heap.empty());
  EXPECT_TRUE(Heap.isInline());
  Heap.push_back(VirtReg(9)); // a moved-from list is usable
  EXPECT_EQ(idsOf(Heap), (std::vector<unsigned>{9}));

  RegList Inline = regList({5, 6});
  RegList Target = regList({7, 8, 9});
  Target = std::move(Inline);
  EXPECT_TRUE(Target.isInline());
  EXPECT_EQ(idsOf(Target), (std::vector<unsigned>{5, 6}));
  EXPECT_TRUE(Inline.empty());
}

TEST(RegList, SelfAssignmentKeepsContents) {
  for (RegList L : {regList({1}), regList({1, 2, 3, 4, 5})}) {
    std::vector<unsigned> Before = idsOf(L);
    RegList &Alias = L;
    L = Alias;
    EXPECT_EQ(idsOf(L), Before);
    L = std::move(Alias);
    EXPECT_EQ(idsOf(L), Before);
  }
}

TEST(RegList, EraseRemovesRunsAndSingles) {
  RegList L = regList({1, 2, 3, 2, 4, 2});
  L.erase(std::remove(L.begin(), L.end(), VirtReg(2)), L.end());
  EXPECT_EQ(idsOf(L), (std::vector<unsigned>{1, 3, 4}));
  RegList::iterator Next = L.erase(L.begin());
  EXPECT_EQ(Next, L.begin());
  EXPECT_EQ(idsOf(L), (std::vector<unsigned>{3, 4}));
  L.erase(L.begin(), L.end());
  EXPECT_TRUE(L.empty());
}

TEST(RegList, EqualityComparesContentsNotStorage) {
  RegList Inline = regList({1, 2});
  RegList Heap;
  Heap.reserve(8);
  Heap.push_back(VirtReg(1));
  Heap.push_back(VirtReg(2));
  EXPECT_TRUE(Inline == Heap);
  Heap.push_back(VirtReg(3));
  EXPECT_FALSE(Inline == Heap);
  EXPECT_FALSE(regList({1, 2}) == regList({2, 1}));
  EXPECT_TRUE(RegList() == RegList());
}

} // namespace
