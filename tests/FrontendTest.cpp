//===- tests/FrontendTest.cpp - C-subset frontend tests -------------------===//
//
// Covers the four pipeline stages (lexer, parser, sema, irgen) plus the
// contracts every compiled module is held to: verifier-clean, byte-exact
// print -> parse -> print round-trip, deterministic recompilation, and a
// clean pass through the oracle lattice. The committed corpus under
// examples/corpus_c/ is compiled wholesale; its lowered IR additionally
// lives in fuzz/corpus/ where FuzzTest replays every entry through the
// full lattice.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "fuzz/Oracle.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef CCRA_SOURCE_DIR
#define CCRA_SOURCE_DIR "."
#endif

using namespace ccra;
using namespace ccra::cc;

namespace {

std::vector<std::string> corpusSources() {
  std::vector<std::string> Paths;
  const std::string Dir = std::string(CCRA_SOURCE_DIR) + "/examples/corpus_c";
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".c")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

std::string printed(const Module &M) {
  std::string Out;
  printModule(M, Out);
  return Out;
}

std::string firstDiag(const std::vector<Diagnostic> &Diags) {
  return Diags.empty() ? std::string() : Diags.front().render();
}

/// Compiles \p Source expecting failure and returns the diagnostics.
std::vector<Diagnostic> expectDiags(const std::string &Source) {
  CompileResult R = Frontend::compile(Source, "t");
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.Diags.empty());
  return R.Diags;
}

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(FrontendLexer, TokenPositions) {
  std::vector<Diagnostic> Diags;
  std::vector<Token> Toks = lex("int main() {\n  return 42;\n}\n", Diags);
  ASSERT_TRUE(Diags.empty());
  ASSERT_GE(Toks.size(), 9u);
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwInt);
  EXPECT_EQ(Toks[0].Line, 1u);
  EXPECT_EQ(Toks[0].Column, 1u);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[1].Text, "main");
  EXPECT_EQ(Toks[1].Column, 5u);
  // "return" is at line 2 column 3, "42" at column 10.
  auto It = std::find_if(Toks.begin(), Toks.end(), [](const Token &T) {
    return T.Kind == TokenKind::Number;
  });
  ASSERT_NE(It, Toks.end());
  EXPECT_EQ(It->Value, 42);
  EXPECT_EQ(It->Line, 2u);
  EXPECT_EQ(It->Column, 10u);
  EXPECT_EQ(Toks.back().Kind, TokenKind::Eof);
}

TEST(FrontendLexer, UnexpectedCharacterPosition) {
  std::vector<Diagnostic> Diags;
  lex("int main() {\n  return 1 $ 2;\n}\n", Diags);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Line, 2u);
  EXPECT_EQ(Diags[0].Column, 12u);
  EXPECT_NE(Diags[0].Message.find("unexpected character"), std::string::npos);
}

TEST(FrontendLexer, UnterminatedBlockComment) {
  std::vector<Diagnostic> Diags;
  lex("int x;\n/* never closed\nint y;\n", Diags);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Line, 2u);
  EXPECT_NE(Diags[0].Message.find("unterminated"), std::string::npos);
}

TEST(FrontendLexer, CommentsAndOperators) {
  std::vector<Diagnostic> Diags;
  std::vector<Token> Toks =
      lex("// line comment\na <= b /* inline */ != c && d", Diags);
  ASSERT_TRUE(Diags.empty());
  std::vector<TokenKind> Kinds;
  for (const Token &T : Toks)
    Kinds.push_back(T.Kind);
  std::vector<TokenKind> Expected = {
      TokenKind::Identifier, TokenKind::LessEq, TokenKind::Identifier,
      TokenKind::NotEq,      TokenKind::Identifier, TokenKind::AndAnd,
      TokenKind::Identifier, TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

//===----------------------------------------------------------------------===//
// Parser diagnostics
//===----------------------------------------------------------------------===//

TEST(FrontendParser, MissingSemicolonPosition) {
  std::vector<Diagnostic> Diags = expectDiags("int main() {\n  int x = 1\n  return x;\n}\n");
  EXPECT_EQ(Diags[0].Line, 3u);
  EXPECT_EQ(Diags[0].Near, "return");
  EXPECT_NE(Diags[0].Message.find("expected ';'"), std::string::npos);
}

TEST(FrontendParser, MissingCloseParen) {
  std::vector<Diagnostic> Diags = expectDiags("int main() {\n  return (1 + 2;\n}\n");
  EXPECT_EQ(Diags[0].Line, 2u);
  EXPECT_NE(Diags[0].Message.find("expected ')'"), std::string::npos);
}

TEST(FrontendParser, NestingPastTheLimitIsDiagnosed) {
  // Each of these segfaulted at 50,000 levels: parse, Sema, IRGen and the
  // AST's destructors all recurse once per level.
  auto Repeat = [](const std::string &Piece, unsigned N) {
    std::string Out;
    for (unsigned I = 0; I < N; ++I)
      Out += Piece;
    return Out;
  };
  const unsigned N = 50000;
  const std::vector<std::pair<std::string, std::string>> Cases = {
      {"parentheses", "int main() { return " + Repeat("(", N) + "1" +
                          Repeat(")", N) + "; }\n"},
      {"unary minus", "int main() { return " + Repeat("-", N) + "1; }\n"},
      {"blocks", "int main() { " + Repeat("{", N) + Repeat("}", N) +
                     " return 0; }\n"},
      {"if", "int main() { int a; a = 0; " + Repeat("if (a) ", N) +
                 "a = 1; return a; }\n"},
      {"operator chain",
       "int main() { return 1" + Repeat(" + 1", N) + "; }\n"}};
  for (const auto &[Name, Source] : Cases) {
    SCOPED_TRACE(Name);
    std::vector<Diagnostic> Diags = expectDiags(Source);
    EXPECT_NE(Diags[0].Message.find("nesting exceeds 256 levels"),
              std::string::npos)
        << Diags[0].render();
    EXPECT_EQ(1u, Diags[0].Line);
    EXPECT_GT(Diags[0].Column, 0u);
  }

  // Well inside the limit still compiles.
  CompileResult R = Frontend::compile(
      "int main() { return " + Repeat("(", 200) + "-1" + Repeat(")", 200) +
          "; }\n",
      "t");
  EXPECT_TRUE(R.ok()) << firstDiag(R.Diags);
}

TEST(FrontendParser, RenderedDiagnosticMatchesIRParserShape) {
  // Frontend and IR-parser diagnostics share support/Diagnostic.h, so both
  // render as "line L:C: message ...".
  std::vector<Diagnostic> FeDiags = expectDiags("int main( {\n  return 0;\n}\n");
  std::string FeLine = FeDiags[0].render();
  EXPECT_EQ(FeLine.rfind("line 1:", 0), 0u) << FeLine;

  ParseResult IrR = parseModule("module m\nfunc @f {\nentry:\n  %i0 = bogus 1\n}\n");
  ASSERT_FALSE(IrR.ok());
  ASSERT_FALSE(IrR.Diags.empty());
  std::string IrLine = IrR.Diags[0].render();
  EXPECT_EQ(IrLine.rfind("line 4:", 0), 0u) << IrLine;
  EXPECT_NE(IrLine.find("unknown opcode"), std::string::npos);
  EXPECT_NE(IrLine.find("'bogus'"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Sema diagnostics
//===----------------------------------------------------------------------===//

TEST(FrontendSema, UndeclaredIdentifier) {
  std::vector<Diagnostic> Diags =
      expectDiags("int main() {\n  return nope;\n}\n");
  EXPECT_EQ(Diags[0].Line, 2u);
  EXPECT_NE(Diags[0].Message.find("undeclared"), std::string::npos);
  EXPECT_EQ(Diags[0].Near, "nope");
}

TEST(FrontendSema, CallArgumentCountMismatch) {
  std::vector<Diagnostic> Diags = expectDiags(
      "int f(int a, int b) { return a + b; }\nint main() {\n  return f(1);\n}\n");
  EXPECT_EQ(Diags[0].Line, 3u);
  EXPECT_NE(Diags[0].Message.find("argument"), std::string::npos);
}

TEST(FrontendSema, BreakOutsideLoop) {
  std::vector<Diagnostic> Diags =
      expectDiags("int main() {\n  break;\n  return 0;\n}\n");
  EXPECT_EQ(Diags[0].Line, 2u);
  EXPECT_NE(Diags[0].Message.find("break"), std::string::npos);
}

TEST(FrontendSema, Redefinition) {
  std::vector<Diagnostic> Diags =
      expectDiags("int main() {\n  int x = 1;\n  int x = 2;\n  return x;\n}\n");
  EXPECT_EQ(Diags[0].Line, 3u);
  EXPECT_NE(Diags[0].Message.find("redefinition"), std::string::npos);
}

TEST(FrontendSema, PointerArithmeticTypeRules) {
  // ptr + int is fine; ptr * int is not.
  CompileResult Ok = Frontend::compile(
      "int a[4];\nint main() {\n  int *p = a;\n  return *(p + 1);\n}\n", "t");
  EXPECT_TRUE(Ok.ok());

  std::vector<Diagnostic> Diags = expectDiags(
      "int a[4];\nint main() {\n  int *p = a;\n  return *(p * 2);\n}\n");
  EXPECT_EQ(Diags[0].Line, 4u);
}

//===----------------------------------------------------------------------===//
// Lowering (golden IR)
//===----------------------------------------------------------------------===//

TEST(FrontendIRGen, GoldenStraightLine) {
  CompileResult R = Frontend::compile(
      "int add3(int a, int b, int c) {\n"
      "  return a + b + c;\n"
      "}\n"
      "\n"
      "int main() {\n"
      "  return add3(1, 2, 3);\n"
      "}\n",
      "g1");
  ASSERT_TRUE(R.ok()) << firstDiag(R.Diags);
  EXPECT_EQ(printed(*R.M),
            "module g1\n"
            "func @add3 {\n"
            "entry:\n"
            "  %i1 = loadimm 0\n"
            "  %i0 = move %i1\n"
            "  %i3 = loadimm 1\n"
            "  %i2 = move %i3\n"
            "  %i5 = loadimm 2\n"
            "  %i4 = move %i5\n"
            "  %i6 = add %i0, %i2\n"
            "  %i7 = add %i6, %i4\n"
            "  ret %i7\n"
            "}\n"
            "\n"
            "func @main {\n"
            "entry:\n"
            "  %i0 = loadimm 1\n"
            "  %i1 = loadimm 2\n"
            "  %i2 = loadimm 3\n"
            "  %i3 = call @add3(%i0, %i1, %i2)\n"
            "  ret %i3\n"
            "}\n"
            "\n");
}

TEST(FrontendIRGen, GoldenLoopAndGlobal) {
  CompileResult R = Frontend::compile(
      "int g;\n"
      "\n"
      "int sum_to(int n) {\n"
      "  int acc = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) {\n"
      "    acc = acc + i;\n"
      "  }\n"
      "  g = acc;\n"
      "  return acc;\n"
      "}\n"
      "\n"
      "int main() {\n"
      "  if (sum_to(10) != 45) {\n"
      "    return 1;\n"
      "  }\n"
      "  return g;\n"
      "}\n",
      "g2");
  ASSERT_TRUE(R.ok()) << firstDiag(R.Diags);
  EXPECT_EQ(printed(*R.M),
            "module g2\n"
            "func @sum_to {\n"
            "entry:\n"
            "  %i1 = loadimm 0\n"
            "  %i0 = move %i1\n"
            "  %i3 = loadimm 0\n"
            "  %i2 = move %i3\n"
            "  %i5 = loadimm 0\n"
            "  %i4 = move %i5\n"
            "  br\n"
            "  ; succs: for.cond.1(1)\n"
            "for.cond.1:    ; preds: entry for.step.1\n"
            "  %i6 = cmp %i4, %i0\n"
            "  condbr %i6\n"
            "  ; succs: for.body.1(0.875) for.end.1(0.125)\n"
            "for.body.1:    ; preds: for.cond.1\n"
            "  %i7 = add %i2, %i4\n"
            "  %i2 = move %i7\n"
            "  br\n"
            "  ; succs: for.step.1(1)\n"
            "for.step.1:    ; preds: for.body.1\n"
            "  %i8 = loadimm 1\n"
            "  %i9 = add %i4, %i8\n"
            "  %i4 = move %i9\n"
            "  br\n"
            "  ; succs: for.cond.1(1)\n"
            "for.end.1:    ; preds: for.cond.1\n"
            "  %i10 = loadimm 4096\n"
            "  store %i2, %i10\n"
            "  ret %i2\n"
            "}\n"
            "\n"
            "func @main {\n"
            "entry:\n"
            "  %i0 = loadimm 10\n"
            "  %i1 = call @sum_to(%i0)\n"
            "  %i2 = loadimm 45\n"
            "  %i3 = cmp %i1, %i2\n"
            "  condbr %i3\n"
            "  ; succs: then.1(0.25) endif.1(0.75)\n"
            "then.1:    ; preds: entry\n"
            "  %i4 = loadimm 1\n"
            "  ret %i4\n"
            "endif.1:    ; preds: entry\n"
            "  %i5 = loadimm 4096\n"
            "  %i6 = load %i5\n"
            "  ret %i6\n"
            "}\n"
            "\n");
}

TEST(FrontendIRGen, NestedLoopProbabilities) {
  // Loop back-edge probability deepens with nesting: 0.875 at depth 1,
  // 0.9375 at depth 2.
  CompileResult R = Frontend::compile(
      "int main() {\n"
      "  int s = 0;\n"
      "  int i = 0;\n"
      "  while (i < 10) {\n"
      "    int j = 0;\n"
      "    while (j < 10) {\n"
      "      s = s + 1;\n"
      "      j = j + 1;\n"
      "    }\n"
      "    i = i + 1;\n"
      "  }\n"
      "  return s;\n"
      "}\n",
      "t");
  ASSERT_TRUE(R.ok());
  std::string Text = printed(*R.M);
  EXPECT_NE(Text.find("while.body.1(0.875)"), std::string::npos) << Text;
  EXPECT_NE(Text.find("while.body.2(0.9375)"), std::string::npos) << Text;
}

TEST(FrontendIRGen, RecursionAndForwardReferences) {
  // Mutual recursion without prototypes: callees are created up front.
  CompileResult R = Frontend::compile(
      "int is_even(int n) {\n"
      "  if (n == 0) { return 1; }\n"
      "  return is_odd(n - 1);\n"
      "}\n"
      "int is_odd(int n) {\n"
      "  if (n == 0) { return 0; }\n"
      "  return is_even(n - 1);\n"
      "}\n"
      "int main() {\n"
      "  return is_even(10);\n"
      "}\n",
      "t");
  ASSERT_TRUE(R.ok()) << firstDiag(R.Diags);
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*R.M, &Errors)) << (Errors.empty() ? "" : Errors[0]);
  EXPECT_NE(R.M->getFunction("is_odd"), nullptr);
  EXPECT_EQ(R.M->getEntryFunction()->getName(), "main");
}

//===----------------------------------------------------------------------===//
// Whole-corpus contracts
//===----------------------------------------------------------------------===//

TEST(FrontendCorpus, CompilesVerifiesAndRoundTrips) {
  std::vector<std::string> Paths = corpusSources();
  ASSERT_GE(Paths.size(), 15u) << "corpus_c should hold at least 15 programs";
  for (const std::string &Path : Paths) {
    CompileResult R = Frontend::compileFile(Path);
    ASSERT_TRUE(R.ok()) << Path << ": " << firstDiag(R.Diags);

    std::vector<std::string> Errors;
    EXPECT_TRUE(verifyModule(*R.M, &Errors))
        << Path << ": " << (Errors.empty() ? "" : Errors[0]);

    std::string First = printed(*R.M);
    ParseResult P = parseModule(First);
    ASSERT_TRUE(P.ok()) << Path << ": " << firstDiag(P.Diags);
    EXPECT_EQ(printed(*P.M), First) << Path << ": round-trip not byte-exact";
  }
}

TEST(FrontendCorpus, DeterministicRecompilation) {
  for (const std::string &Path : corpusSources()) {
    CompileResult A = Frontend::compileFile(Path);
    CompileResult B = Frontend::compileFile(Path);
    ASSERT_TRUE(A.ok() && B.ok()) << Path;
    EXPECT_EQ(printed(*A.M), printed(*B.M)) << Path;
  }
}

TEST(FrontendCorpus, OracleLatticeSpotCheck) {
  // Full-lattice coverage of every corpus program lives in FuzzTest via the
  // committed fuzz/corpus/cc-*.ccra entries; here we lattice-check a few
  // shapes (recursion, loops+arrays, dispatch loop) straight from source.
  const char *Spots[] = {"fib.c", "heap_sort.c", "interp.c"};
  for (const char *Name : Spots) {
    std::string Path =
        std::string(CCRA_SOURCE_DIR) + "/examples/corpus_c/" + Name;
    CompileResult R = Frontend::compileFile(Path);
    ASSERT_TRUE(R.ok()) << Path;
    OracleReport Report = runOracleLattice(*R.M, OracleOptions());
    EXPECT_TRUE(Report.ok()) << Path << ": "
                             << (Report.Failures.empty()
                                     ? ""
                                     : Report.Failures[0].Detail);
    EXPECT_GT(Report.LegsRun, 0u);
  }
}

TEST(FrontendCorpus, CommittedFuzzCorpusMatchesRecompile) {
  // The committed fuzz/corpus/cc-<name>.ccra entries must stay in sync with
  // recompiling the C sources (the nightly fuzz leg enforces the same).
  std::string FuzzDir = std::string(CCRA_SOURCE_DIR) + "/fuzz/corpus";
  unsigned Checked = 0;
  for (const std::string &Path : corpusSources()) {
    std::string Name = Frontend::moduleNameForPath(Path);
    std::string Committed = FuzzDir + "/cc-" + Name + ".ccra";
    if (!std::filesystem::exists(Committed))
      continue;
    std::ifstream In(Committed);
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Text = SS.str();
    // Strip the "; " provenance header lines; the body is printed IR.
    std::string Body;
    std::istringstream Lines(Text);
    std::string Line;
    while (std::getline(Lines, Line))
      if (Line.rfind(";", 0) != 0)
        Body += Line + "\n";
    while (Body.size() && Body.front() == '\n')
      Body.erase(Body.begin());

    CompileResult R = Frontend::compileFile(Path);
    ASSERT_TRUE(R.ok()) << Path;
    EXPECT_EQ(printed(*R.M), Body)
        << Committed << " is stale; regenerate with "
        << "ccra_cc --emit-corpus=fuzz/corpus examples/corpus_c/*.c";
    ++Checked;
  }
  EXPECT_GE(Checked, 15u) << "expected committed cc-*.ccra fuzz corpus entries";
}

} // namespace
