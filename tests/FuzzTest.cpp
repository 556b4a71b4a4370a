//===- tests/FuzzTest.cpp - Fuzz harness + seed-corpus replay -------------===//
//
// Tier-1 coverage for the differential fuzzing subsystem:
//
//  - the committed seed corpus (fuzz/corpus/*.ccra) replays clean through
//    the full oracle lattice — every past reproducer stays fixed — and
//    spills, so the component check's spill-liveness comparison runs;
//  - FuzzGen is deterministic per seed and its modules survive a textual
//    round trip;
//  - a fresh slice of seeds passes the lattice (the in-tree slice of what
//    ccra_fuzz sweeps at scale);
//  - the shrinker converges: a planted mismatch (OracleOptions'
//    test-only fault hook) is minimized to a near-trivial module that
//    still fails, and the evaluation budget is honored.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/Oracle.h"
#include "fuzz/Shrinker.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "support/Rng.h"
#include "workloads/FuzzGen.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace ccra;

#ifndef CCRA_SOURCE_DIR
#define CCRA_SOURCE_DIR "."
#endif

namespace {

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(M, OS);
  return OS.str();
}

TEST(FuzzCorpus, SeedCorpusReplaysClean) {
  std::vector<std::string> Errors;
  std::vector<CorpusEntry> Entries =
      loadCorpusDir(std::string(CCRA_SOURCE_DIR) + "/fuzz/corpus", Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  // The committed seed corpus is never empty: generated seeds plus any
  // minimized reproducers live there.
  EXPECT_FALSE(Entries.empty());
  unsigned SpillRounds = 0;
  for (const CorpusEntry &Entry : Entries) {
    OracleOptions OO;
    // Reproducers carry their original register file in the header.
    std::string ConfigErr;
    ASSERT_TRUE(configFromHeader(Entry, OO.Config, &ConfigErr))
        << Entry.Path << ": " << ConfigErr;
    OracleReport Report = runOracleLattice(*Entry.M, OO);
    SpillRounds += Report.SpillLivenessChecks;
    for (const std::string &Line : Report.lines())
      ADD_FAILURE() << Entry.Path << ": " << Line;
  }
  // The component check's spill-liveness comparison ran, so a corpus that
  // stopped spilling cannot leave it vacuous.
  EXPECT_GT(SpillRounds, 0u);
}

TEST(FuzzGenTest, DeterministicPerSeed) {
  for (FuzzProfile P : allFuzzProfiles()) {
    FuzzGenParams Params;
    Params.Seed = 42;
    Params.Profile = P;
    std::unique_ptr<Module> A = generateFuzzModule(Params);
    std::unique_ptr<Module> B = generateFuzzModule(Params);
    EXPECT_EQ(printed(*A), printed(*B)) << fuzzProfileName(P);

    Params.Seed = 43;
    std::unique_ptr<Module> C = generateFuzzModule(Params);
    EXPECT_NE(printed(*A), printed(*C)) << fuzzProfileName(P);
  }
}

TEST(FuzzGenTest, ModulesRoundTripThroughText) {
  for (FuzzProfile P : allFuzzProfiles()) {
    FuzzGenParams Params;
    Params.Seed = 7;
    Params.Profile = P;
    std::unique_ptr<Module> M = generateFuzzModule(Params);
    ParseResult R = parseModule(printed(*M));
    ASSERT_TRUE(R.ok()) << fuzzProfileName(P) << ": "
                        << (R.Errors.empty() ? "?" : R.Errors.front());
    EXPECT_TRUE(verifyModule(*R.M, nullptr));
    EXPECT_EQ(printed(*M), printed(*R.M)) << fuzzProfileName(P);
  }
}

TEST(FuzzGenTest, ProfileNamesRoundTrip) {
  for (FuzzProfile P : allFuzzProfiles()) {
    FuzzProfile Parsed;
    ASSERT_TRUE(parseFuzzProfile(fuzzProfileName(P), Parsed));
    EXPECT_EQ(P, Parsed);
  }
  FuzzProfile Ignored;
  EXPECT_FALSE(parseFuzzProfile("not-a-profile", Ignored));
}

TEST(FuzzLattice, FreshSeedsPassAllOracles) {
  // The in-tree slice of the at-scale ccra_fuzz sweep: one seed per
  // profile, randomized register file, full lattice.
  for (FuzzProfile P : allFuzzProfiles()) {
    FuzzGenParams Params;
    Params.Seed = 1000 + static_cast<uint64_t>(P);
    Params.Profile = P;
    std::unique_ptr<Module> M = generateFuzzModule(Params);
    Rng ConfigRng(Params.Seed ^ 0xc0ffee);
    OracleOptions OO;
    OO.Config = fuzzRegisterConfig(ConfigRng);
    OO.ParallelJobs = 2;
    OracleReport Report = runOracleLattice(*M, OO);
    // Four equivalence legs plus six soundness legs, and the component
    // check on every function body.
    EXPECT_EQ(Report.LegsRun, 10u);
    unsigned Bodies = 0;
    for (const auto &F : M->functions())
      Bodies += F->isDeclaration() ? 0 : 1;
    EXPECT_GT(Bodies, 0u);
    EXPECT_EQ(Report.ComponentChecks, Bodies);
    for (const std::string &Line : Report.lines())
      ADD_FAILURE() << fuzzProfileName(P) << " seed " << Params.Seed << ": "
                    << Line;
  }
}

TEST(FuzzShrinker, ConvergesOnInjectedFault) {
  // Plant a mismatch via the test-only hook: "fails while the module
  // still contains a call". The minimizer must converge to a near-trivial
  // module that still trips the same fault and still IR-verifies.
  FuzzGenParams Params;
  Params.Seed = 11;
  Params.Profile = FuzzProfile::CallDense;
  std::unique_ptr<Module> M = generateFuzzModule(Params);

  auto ContainsCall = [](const Module &Mod) {
    for (const auto &F : Mod.functions())
      for (const auto &BB : F->blocks())
        for (const Instruction &I : BB->instructions())
          if (I.isCall())
            return true;
    return false;
  };
  ASSERT_TRUE(ContainsCall(*M));

  OracleOptions OO;
  OO.InjectedFault = ContainsCall;
  ASSERT_FALSE(runOracleLattice(*M, OO).ok());

  ShrinkStats Stats;
  std::unique_ptr<Module> Minimal = shrinkModule(
      *M,
      [&](const Module &Candidate) {
        return !runOracleLattice(Candidate, OO).ok();
      },
      {}, &Stats);

  EXPECT_TRUE(ContainsCall(*Minimal));
  EXPECT_TRUE(verifyModule(*Minimal, nullptr));
  EXPECT_LT(Stats.InstructionsAfter, Stats.InstructionsBefore / 4)
      << "shrinker failed to make substantial progress";
  // A "contains a call" failure minimizes hard: nothing but the calling
  // skeleton should survive.
  EXPECT_LE(Stats.InstructionsAfter, 12u);
}

TEST(FuzzShrinker, RespectsEvaluationBudget) {
  FuzzGenParams Params;
  Params.Seed = 12;
  Params.Profile = FuzzProfile::Mixed;
  std::unique_ptr<Module> M = generateFuzzModule(Params);

  unsigned Calls = 0;
  ShrinkOptions SO;
  SO.MaxEvaluations = 25;
  ShrinkStats Stats;
  std::unique_ptr<Module> Minimal = shrinkModule(
      *M,
      [&](const Module &) {
        ++Calls;
        return true; // everything "fails": worst case for the budget
      },
      SO, &Stats);
  EXPECT_LE(Stats.Evaluations, SO.MaxEvaluations);
  EXPECT_EQ(Calls, Stats.Evaluations);
  EXPECT_TRUE(verifyModule(*Minimal, nullptr));
}

TEST(FuzzCorpusIO, WriteLoadRoundTripsHeader) {
  FuzzGenParams Params;
  Params.Seed = 3;
  Params.Profile = FuzzProfile::Tiny;
  std::unique_ptr<Module> M = generateFuzzModule(Params);

  std::string Dir = ::testing::TempDir() + "ccra-corpus-test";
  std::string Path = writeCorpusFile(
      *M, Dir, "roundtrip", {"config: 6,4,1,1", "note: header survives"});
  ASSERT_FALSE(Path.empty());

  std::vector<std::string> Errors;
  std::vector<CorpusEntry> Entries = loadCorpusDir(Dir, Errors);
  EXPECT_TRUE(Errors.empty());
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].Path, Path);
  ASSERT_EQ(Entries[0].HeaderLines.size(), 2u);
  EXPECT_EQ(Entries[0].HeaderLines[0], "config: 6,4,1,1");
  EXPECT_EQ(printed(*M), printed(*Entries[0].M));
}

TEST(FuzzCorpusIO, MissingDirectoryIsEmptyCorpus) {
  std::vector<std::string> Errors;
  EXPECT_TRUE(loadCorpusDir("/nonexistent/ccra-no-such-dir", Errors).empty());
  EXPECT_TRUE(Errors.empty());
}

} // namespace
