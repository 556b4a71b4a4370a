//===- tests/ParserTest.cpp - Textual IR parser tests ---------------------===//

#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "workloads/RandomProgram.h"
#include "workloads/SpecProxies.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace ccra;

namespace {

std::string printToString(const Module &M) {
  std::ostringstream OS;
  printModule(M, OS);
  return OS.str();
}

TEST(IRParser, ParsesMinimalModule) {
  ParseResult R = parseModule("module demo\n"
                              "func @main {\n"
                              "entry:\n"
                              "  %i0 = loadimm 42\n"
                              "  ret %i0\n"
                              "}\n");
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors.front());
  EXPECT_EQ(R.M->getName(), "demo");
  Function *F = R.M->getFunction("main");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(R.M->getEntryFunction(), F);
  EXPECT_TRUE(verifyModule(*R.M, nullptr));
  const auto &Insts = F->getEntryBlock()->instructions();
  ASSERT_EQ(Insts.size(), 2u);
  EXPECT_EQ(Insts[0].Op, Opcode::LoadImm);
  EXPECT_EQ(Insts[0].Imm, 42);
  EXPECT_EQ(Insts[1].Op, Opcode::Ret);
}

TEST(IRParser, ParsesControlFlowWithProbabilities) {
  ParseResult R = parseModule("module m\n"
                              "func @main {\n"
                              "entry:\n"
                              "  %i0 = loadimm 1\n"
                              "  %i1 = cmp %i0, %i0\n"
                              "  condbr %i1\n"
                              "  ; succs: hot(0.9) cold(0.1)\n"
                              "hot:\n"
                              "  ret %i0\n"
                              "cold:\n"
                              "  ret %i0\n"
                              "}\n");
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors.front());
  Function *F = R.M->getFunction("main");
  const auto &Succs = F->getEntryBlock()->successors();
  ASSERT_EQ(Succs.size(), 2u);
  EXPECT_EQ(Succs[0].Succ->getName(), "hot");
  EXPECT_DOUBLE_EQ(Succs[0].Probability, 0.9);
  EXPECT_DOUBLE_EQ(Succs[1].Probability, 0.1);
  EXPECT_TRUE(verifyModule(*R.M, nullptr));
}

TEST(IRParser, ResolvesForwardCalls) {
  ParseResult R = parseModule("module m\n"
                              "func @main {\n"
                              "entry:\n"
                              "  %i0 = loadimm 1\n"
                              "  %i1 = call @later(%i0)\n"
                              "  ret %i1\n"
                              "}\n"
                              "func @later (external)\n");
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors.front());
  const Instruction &Call =
      R.M->getFunction("main")->getEntryBlock()->instructions()[1];
  EXPECT_EQ(Call.Callee, R.M->getFunction("later"));
}

TEST(IRParser, ParsesBanksFromRegisterNames) {
  ParseResult R = parseModule("module m\n"
                              "func @main {\n"
                              "entry:\n"
                              "  %f0 = floadimm 2\n"
                              "  %f1 = fadd %f0, %f0\n"
                              "  %i2 = cvt.f2i %f1\n"
                              "  ret %i2\n"
                              "}\n");
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors.front());
  Function *F = R.M->getFunction("main");
  EXPECT_EQ(F->vregBank(VirtReg(0)), RegBank::Float);
  EXPECT_EQ(F->vregBank(VirtReg(2)), RegBank::Int);
  EXPECT_TRUE(verifyModule(*R.M, nullptr));
}

TEST(IRParser, ParsesSpillAndSaveRestoreCode) {
  ParseResult R = parseModule("module m\n"
                              "func @main {\n"
                              "entry:\n"
                              "  save r3\n"
                              "  %i0 = spill.load slot2\n"
                              "  spill.store %i0, slot2\n"
                              "  restore r3\n"
                              "  ret\n"
                              "}\n");
  ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors.front());
  const auto &Insts = R.M->getFunction("main")->getEntryBlock()->instructions();
  EXPECT_EQ(Insts[0].Phys, PhysReg(RegBank::Int, 3));
  EXPECT_EQ(Insts[1].SpillSlot, 2u);
  EXPECT_EQ(Insts[1].Overhead, OverheadKind::Spill);
  EXPECT_EQ(Insts[2].Uses[0], Insts[1].Defs[0]);
}

// --- Error reporting ----------------------------------------------------------

TEST(IRParser, RejectsUnknownOpcode) {
  ParseResult R = parseModule("module m\nfunc @f {\nentry:\n  frobnicate\n}\n");
  EXPECT_FALSE(R.ok());
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].find("unknown opcode"), std::string::npos);
  EXPECT_NE(R.Errors[0].find("line 4"), std::string::npos);
}

TEST(IRParser, RejectsBankConflict) {
  ParseResult R = parseModule("module m\nfunc @f {\nentry:\n"
                              "  %i0 = loadimm 1\n"
                              "  %f0 = cvt.i2f %i0\n" // %f0 reuses id 0
                              "  ret %i0\n}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("two banks"), std::string::npos);
}

TEST(IRParser, RejectsUnknownSuccessor) {
  ParseResult R = parseModule("module m\nfunc @f {\nentry:\n  br\n"
                              "  ; succs: nowhere(1)\n}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("unknown block"), std::string::npos);
}

TEST(IRParser, RejectsUnknownCallee) {
  ParseResult R = parseModule("module m\nfunc @f {\nentry:\n"
                              "  call @ghost()\n  ret\n}\n");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("unknown function"), std::string::npos);
}

TEST(IRParser, RejectsMissingBrace) {
  ParseResult R = parseModule("module m\nfunc @f {\nentry:\n  ret\n");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Errors[0].find("missing '}'"), std::string::npos);
}

TEST(IRParser, RejectsInstructionAfterTerminator) {
  // Diagnosed before BasicBlock::append, which asserts on it.
  ParseResult R = parseModule("module m\nfunc @main {\nentry:\n"
                              "  %i0 = loadimm 1\n"
                              "  ret %i0\n"
                              "  %i1 = loadimm 2\n}\n");
  EXPECT_FALSE(R.ok());
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].find("instruction after terminator in @main block "
                             "entry"),
            std::string::npos)
      << R.Errors[0];
  EXPECT_NE(R.Errors[0].find("line 6"), std::string::npos) << R.Errors[0];
}

TEST(IRParser, RejectsTextBeforeModule) {
  ParseResult R = parseModule("func @f (external)\n");
  EXPECT_FALSE(R.ok());
}

// --- Round trips -----------------------------------------------------------------

TEST(IRParser, RoundTripsAllSpecProxies) {
  for (const std::string &Name : specProxyNames()) {
    SCOPED_TRACE(Name);
    std::unique_ptr<Module> Original = buildSpecProxy(Name);
    std::string Text = printToString(*Original);
    ParseResult R = parseModule(Text);
    ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors.front());
    EXPECT_EQ(printToString(*R.M), Text);
    EXPECT_TRUE(verifyModule(*R.M, nullptr));
  }
}

TEST(IRParser, RoundTripsRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    SCOPED_TRACE(Seed);
    RandomProgramParams Params;
    Params.Seed = Seed;
    std::unique_ptr<Module> Original = generateRandomProgram(Params);
    std::string Text = printToString(*Original);
    ParseResult R = parseModule(Text);
    ASSERT_TRUE(R.ok()) << (R.Errors.empty() ? "" : R.Errors.front());
    EXPECT_EQ(printToString(*R.M), Text);
    EXPECT_TRUE(verifyModule(*R.M, nullptr));
  }
}

} // namespace
