//===- tests/ParserTest.cpp - Textual IR parser tests ---------------------===//

#include "fuzz/Corpus.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "workloads/FuzzGen.h"
#include "workloads/RandomProgram.h"
#include "workloads/SpecProxies.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>

#ifndef CCRA_SOURCE_DIR
#define CCRA_SOURCE_DIR "."
#endif

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

TEST(IRParser, RejectsRegisterIdsThatDoNotFit) {
  // strtoul's result used to be narrowed to unsigned, so %i4294967296
  // aliased %i0 and this use without a definition verified.
  for (const char *Reg : {"%i4294967296", "%i4294967295",
                          "%i99999999999999999999999", "%i-1", "%i+0"}) {
    SCOPED_TRACE(Reg);
    ParseResult R = parseModule("module m\nfunc @main {\nentry:\n"
                                "  %i0 = loadimm 1\n  ret " +
                                std::string(Reg) + "\n}\n");
    EXPECT_FALSE(R.ok());
    ASSERT_FALSE(R.Diags.empty());
    EXPECT_EQ(5u, R.Diags[0].Line);
    EXPECT_EQ(Reg, R.Diags[0].Near);
  }
}

TEST(IRParser, RejectsRegisterIdsPastTheBodyLength) {
  // Every id below the largest gets a placeholder register, so this
  // 72-byte module used to build a 400M-entry table (seconds, gigabytes).
  const std::string Bomb = "module m\nfunc @main {\nentry:\n"
                           "  %i400000000 = loadimm 1\n  ret %i400000000\n}\n";
  auto Start = std::chrono::steady_clock::now();
  ParseResult R = parseModule(Bomb);
  EXPECT_LT(std::chrono::steady_clock::now() - Start, std::chrono::seconds(1));
  EXPECT_FALSE(R.ok());
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].find("-byte function body"),
            std::string::npos)
      << R.Errors[0];

  // Sparse ids within the body's length still parse, placeholders and all.
  R = parseModule("module m\nfunc @main {\nentry:\n"
                  "  %i20 = loadimm 1\n  ret %i20\n}\n");
  ASSERT_TRUE(R.ok()) << R.Errors.front();
  EXPECT_EQ(21u, R.M->getFunction("main")->numVRegs());
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

TEST(IRParser, PrintParsePrintIsStableOnCorpusAndFuzzGen) {
  std::vector<std::string> Errors;
  std::vector<CorpusEntry> Corpus =
      loadCorpusDir(std::string(CCRA_SOURCE_DIR) + "/fuzz/corpus", Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  ASSERT_FALSE(Corpus.empty());
  std::vector<std::pair<std::string, std::unique_ptr<Module>>> Modules;
  for (CorpusEntry &E : Corpus)
    Modules.emplace_back(E.Path, std::move(E.M));
  for (FuzzProfile Profile : allFuzzProfiles())
    for (uint64_t Seed = 1; Seed <= 4; ++Seed)
      for (unsigned Scale : {1u, 8u}) {
        if (Scale == 8 && Seed > 1)
          continue;
        FuzzGenParams Params;
        Params.Seed = Seed;
        Params.Profile = Profile;
        Params.SizeScale = Scale;
        Modules.emplace_back(std::string(fuzzProfileName(Profile)) + "/" +
                                 std::to_string(Seed) + "x" +
                                 std::to_string(Scale),
                             generateFuzzModule(Params));
      }

  for (const auto &[Name, M] : Modules) {
    SCOPED_TRACE(Name);
    std::string Text = printToString(*M);
    ParseResult R = parseModule(Text);
    ASSERT_TRUE(R.ok()) << R.Errors.front();
    EXPECT_EQ(Text, printToString(*R.M));
    std::vector<std::string> VerifyErrors;
    EXPECT_TRUE(verifyModule(*R.M, &VerifyErrors))
        << (VerifyErrors.empty() ? "" : VerifyErrors.front());
  }
}

} // namespace
