//===- tests/PropertyTest.cpp - Property-based allocation tests -----------===//
//
// Parameterized sweeps over random programs x allocators x register
// configurations, checking the invariants that must hold everywhere:
//
//  - allocation converges and passes the soundness verifier (the engine
//    aborts the process on a verifier failure, so completing is passing);
//  - the final code still passes the IR verifier;
//  - the cost measured off the tagged overhead instructions equals the
//    analytically derived cost;
//  - allocation is deterministic;
//  - overhead is monotone: strictly more registers of both kinds never
//    increase the *spill* component for the same allocator... is not
//    actually guaranteed for coloring heuristics, so the checked property
//    is the sound one: costs are finite and non-negative, and spilling is
//    impossible when the register file exceeds the live-range count.
//
//===----------------------------------------------------------------------===//

#include "analysis/Frequency.h"
#include "core/EngineBuilder.h"
#include "ir/Cloner.h"
#include "ir/Verifier.h"
#include "regalloc/CostAccounting.h"
#include "support/Rng.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <sstream>

using namespace ccra;

namespace {

struct PropertyCase {
  uint64_t Seed;
  AllocatorKind Kind;

  std::string name() const {
    AllocatorOptions Opts;
    Opts.Kind = Kind;
    std::string Tag = Opts.describe();
    for (char &C : Tag)
      if (!std::isalnum(static_cast<unsigned char>(C)))
        C = '_';
    return "seed" + std::to_string(Seed) + "_" + Tag;
  }
};

AllocatorOptions optionsFor(AllocatorKind Kind) {
  switch (Kind) {
  case AllocatorKind::Chaitin:
    return baseChaitinOptions();
  case AllocatorKind::Improved:
    return improvedOptions();
  case AllocatorKind::Priority:
    return priorityOptions();
  case AllocatorKind::CBH:
    return cbhOptions();
  }
  return baseChaitinOptions();
}

class AllocationProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {
protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  AllocatorOptions options() const {
    return optionsFor(static_cast<AllocatorKind>(std::get<1>(GetParam())));
  }
  std::unique_ptr<Module> makeProgram() const {
    RandomProgramParams Params;
    Params.Seed = seed();
    return generateRandomProgram(Params);
  }
};

TEST_P(AllocationProperty, ConvergesAndStaysWellFormed) {
  for (const RegisterConfig &Config :
       {RegisterConfig(6, 4, 0, 0), RegisterConfig(8, 6, 2, 2),
        RegisterConfig(18, 10, 8, 6)}) {
    std::unique_ptr<Module> M = makeProgram();
    FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
    AllocationEngine Engine =
        EngineBuilder(Config).options(options()).build();
    ModuleAllocationResult Result = Engine.allocateModule(*M, Freq);
    EXPECT_TRUE(verifyModule(*M, nullptr)) << Config.label();
    EXPECT_GE(Result.Totals.total(), 0.0);
    EXPECT_TRUE(std::isfinite(Result.Totals.total()));
  }
}

TEST_P(AllocationProperty, MeasuredCostMatchesAnalytic) {
  std::unique_ptr<Module> M = makeProgram();
  FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
  AllocationEngine Engine =
      EngineBuilder(RegisterConfig(8, 6, 2, 2)).options(options()).build();
  ModuleAllocationResult Result = Engine.allocateModule(*M, Freq);

  CostBreakdown Measured;
  for (const auto &F : M->functions())
    Measured += measureCostFromCode(*F, Freq);
  EXPECT_NEAR(Measured.Spill, Result.Totals.Spill,
              1e-6 * (1 + Result.Totals.Spill));
  EXPECT_NEAR(Measured.CallerSave, Result.Totals.CallerSave,
              1e-6 * (1 + Result.Totals.CallerSave));
  EXPECT_NEAR(Measured.CalleeSave, Result.Totals.CalleeSave,
              1e-6 * (1 + Result.Totals.CalleeSave));
  EXPECT_NEAR(Measured.Shuffle, Result.Totals.Shuffle, 1e-9);
}

TEST_P(AllocationProperty, Deterministic) {
  auto RunOnce = [&]() {
    std::unique_ptr<Module> M = makeProgram();
    FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
    AllocationEngine Engine = EngineBuilder(RegisterConfig(7, 5, 1, 1))
        .options(options()).build();
    return Engine.allocateModule(*M, Freq).Totals.total();
  };
  EXPECT_DOUBLE_EQ(RunOnce(), RunOnce());
}

TEST_P(AllocationProperty, AbundantRegistersMeanNoInvoluntarySpills) {
  // With a register file far larger than the program's live-range count,
  // nothing can be spilled for lack of colors. (Voluntary storage-class
  // spills are still allowed — memory can simply be cheaper.) CBH is
  // exempt: its cost model deliberately spills a call-crossing live range
  // whenever that is cheaper than unlocking one more callee-save register,
  // registers to spare or not (§10).
  if (options().Kind == AllocatorKind::CBH)
    GTEST_SKIP() << "CBH spills by cost even with spare registers";
  RandomProgramParams Params;
  Params.Seed = seed();
  Params.IntValues = 4;
  Params.FloatValues = 2;
  Params.RegionsPerFunction = 3;
  std::unique_ptr<Module> M = generateRandomProgram(Params);
  FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
  AllocationEngine Engine = EngineBuilder(RegisterConfig(32, 32, 32, 32))
      .options(options()).build();
  ModuleAllocationResult Result = Engine.allocateModule(*M, Freq);
  for (const auto &[F, FA] : Result.PerFunction) {
    (void)F;
    EXPECT_EQ(FA.SpilledRanges, FA.VoluntarySpills);
  }
}

std::string propertyCaseName(
    const ::testing::TestParamInfo<std::tuple<uint64_t, int>> &Info) {
  PropertyCase Case{std::get<0>(Info.param),
                    static_cast<AllocatorKind>(std::get<1>(Info.param))};
  return Case.name();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllocationProperty,
    ::testing::Combine(::testing::Range<uint64_t>(1, 13),
                       ::testing::Values(0, 1, 2, 3)),
    propertyCaseName);

// --- Cross-allocator relationships on the proxies ------------------------------

TEST(AllocationRelations, OptimisticNeverSpillsMoreThanChaitin) {
  // §8: ignoring call cost, optimistic coloring is at least as good — its
  // spill component never exceeds plain Chaitin's on the same input.
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    RandomProgramParams Params;
    Params.Seed = Seed;
    std::unique_ptr<Module> Source = generateRandomProgram(Params);

    auto SpillOf = [&](const AllocatorOptions &Opts) {
      std::unique_ptr<Module> M = cloneModule(*Source);
      FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
      AllocationEngine Engine = EngineBuilder(RegisterConfig(7, 5, 1, 1))
          .options(Opts).build();
      return Engine.allocateModule(*M, Freq).Totals.Spill;
    };
    EXPECT_LE(SpillOf(optimisticOptions()),
              SpillOf(baseChaitinOptions()) + 1e-9)
        << Seed;
  }
}

// --- AllocatorOptions textual round trip ---------------------------------------
//
// canonicalKey() is the one textual form (wire protocol, `ccra_cc
// --options`, cache keys). It carries the ten behavior fields; the four
// execution fields are set from code only, so a trip through text resets
// them to their defaults and their names do not parse.

AllocatorOptions randomOptions(Rng &R) {
  AllocatorOptions O;
  O.Kind = static_cast<AllocatorKind>(R.nextBelow(4));
  O.Optimistic = R.nextBool();
  O.StorageClass = R.nextBool();
  O.BenefitSimplify = R.nextBool();
  O.PreferenceDecision = R.nextBool();
  O.BSKey = R.nextBool() ? BenefitKeyStrategy::MaxBenefit
                         : BenefitKeyStrategy::Delta;
  O.CalleeModel = R.nextBool() ? CalleeCostModel::FirstUserPays
                               : CalleeCostModel::Shared;
  O.Ordering = static_cast<PriorityOrdering>(R.nextBelow(3));
  O.AggressiveCoalescing = R.nextBool();
  O.MaterializeSaveRestore = R.nextBool();
  O.Verify = R.nextBool();
  O.VerifyReportOnly = R.nextBool();
  O.IncrementalReconstruction = R.nextBool();
  O.Jobs = static_cast<unsigned>(R.nextBelow(64));
  return O;
}

/// \p O with the execution fields canonicalKey leaves out at defaults.
AllocatorOptions behaviorOnly(AllocatorOptions O) {
  const AllocatorOptions Defaults;
  O.Verify = Defaults.Verify;
  O.VerifyReportOnly = Defaults.VerifyReportOnly;
  O.IncrementalReconstruction = Defaults.IncrementalReconstruction;
  O.Jobs = Defaults.Jobs;
  return O;
}

TEST(OptionsRoundTrip, RandomOptionSpaceIsExact) {
  // All fourteen fields randomized: the ten behavior fields come back
  // exactly, the four execution fields come back at their defaults.
  Rng R(20260806);
  for (int I = 0; I < 2000; ++I) {
    AllocatorOptions O = randomOptions(R);
    std::string Text = O.canonicalKey();
    AllocatorOptions Back;
    std::string Err;
    ASSERT_TRUE(parseAllocatorOptions(Text, Back, &Err)) << Text << ": " << Err;
    EXPECT_TRUE(behaviorOnly(O) == Back) << Text;
  }
}

TEST(OptionsRoundTrip, NamedConfigurationsAreExact) {
  for (const AllocatorOptions &O :
       {baseChaitinOptions(), optimisticOptions(), improvedOptions(),
        improvedOptions(false, true, false), improvedOptimisticOptions(),
        priorityOptions(PriorityOrdering::RemoveUnconstrained),
        priorityOptions(PriorityOrdering::SortUnconstrained), priorityOptions(),
        cbhOptions()}) {
    AllocatorOptions Back;
    ASSERT_TRUE(parseAllocatorOptions(O.canonicalKey(), Back));
    EXPECT_TRUE(O == Back) << O.canonicalKey();
  }
}

TEST(OptionsRoundTrip, TokensParseInAnyOrderAndOmittedFieldsDefault) {
  AllocatorOptions O;
  ASSERT_TRUE(parseAllocatorOptions("materialize=0 kind=cbh", O));
  AllocatorOptions Expected;
  Expected.Kind = AllocatorKind::CBH;
  Expected.MaterializeSaveRestore = false;
  EXPECT_TRUE(O == Expected);

  // The reversed key parses to the same struct as the canonical order.
  Rng R(99);
  AllocatorOptions Sample = behaviorOnly(randomOptions(R));
  std::istringstream IS(Sample.canonicalKey());
  std::vector<std::string> Tokens;
  for (std::string T; IS >> T;)
    Tokens.push_back(T);
  EXPECT_EQ(Tokens.size(), 10u);
  std::string Reversed;
  for (auto It = Tokens.rbegin(); It != Tokens.rend(); ++It)
    Reversed += (Reversed.empty() ? "" : " ") + *It;
  AllocatorOptions Back;
  ASSERT_TRUE(parseAllocatorOptions(Reversed, Back));
  EXPECT_TRUE(Sample == Back);
}

TEST(OptionsRoundTrip, MalformedInputIsRejected) {
  AllocatorOptions O;
  std::string Err;
  EXPECT_FALSE(parseAllocatorOptions("kind=nonsense", O, &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(parseAllocatorOptions("no-such-key=1", O));
  EXPECT_FALSE(parseAllocatorOptions("bs-key=notakey", O));
  EXPECT_FALSE(parseAllocatorOptions("optimistic=2", O));
  EXPECT_FALSE(parseAllocatorOptions("=1", O));
  EXPECT_FALSE(parseAllocatorOptions("kind", O));
  // Empty text is the all-defaults struct, not an error.
  EXPECT_TRUE(parseAllocatorOptions("", O));
  EXPECT_TRUE(O == AllocatorOptions());
}

TEST(OptionsRoundTrip, NonKeyNamesAreRejected) {
  // The four execution fields and the five deleted comparison knobs: none
  // of them is a key, so none can be set from the wire or `--options`.
  for (const char *Name :
       {"verify", "verify-report-only", "incremental-reconstruction", "jobs",
        "incremental-liveness", "scratch-arenas", "graph",
        "legacy-simplifier", "max-rounds"}) {
    for (const char *Value : {"0", "1", "dense"}) {
      std::string Token = std::string(Name) + "=" + Value;
      AllocatorOptions O;
      std::string Err;
      EXPECT_FALSE(parseAllocatorOptions("kind=improved " + Token, O, &Err))
          << Token;
      EXPECT_NE(Err.find(std::string("'") + Name + "'"), std::string::npos)
          << Token << ": " << Err;
    }
    EXPECT_EQ(AllocatorOptions().canonicalKey().find(std::string(Name) + "="),
              std::string::npos)
        << Name;
  }
}

// --- AllocatorOptions::canonicalKey --------------------------------------
//
// The one textual form: the wire protocol and the allocation cache both
// key on it, so it must cover exactly the fields that change WHAT is
// computed and be blind to every field that only changes HOW. The oracle
// lattice (FuzzTest) proves the excluded fields never change results;
// these tests pin the key to that split.

/// Rerandomizes every execution field canonicalKey excludes.
void scrambleExecutionFields(AllocatorOptions &O, Rng &R) {
  O.Verify = R.nextBool();
  O.VerifyReportOnly = R.nextBool();
  O.IncrementalReconstruction = R.nextBool();
  O.Jobs = static_cast<unsigned>(R.nextBelow(64));
}

TEST(CanonicalKey, ExecutionStrategyNeverPerturbsTheKey) {
  Rng R(20260809);
  for (int I = 0; I < 1000; ++I) {
    AllocatorOptions A = randomOptions(R);
    AllocatorOptions B = A;
    scrambleExecutionFields(B, R);
    EXPECT_EQ(A.canonicalKey(), B.canonicalKey());
  }
}

TEST(CanonicalKey, EveryBehaviorFieldPerturbsTheKey) {
  using Mutator = void (*)(AllocatorOptions &);
  const Mutator Mutations[] = {
      [](AllocatorOptions &O) {
        O.Kind = static_cast<AllocatorKind>(
            (static_cast<unsigned>(O.Kind) + 1) % 4);
      },
      [](AllocatorOptions &O) { O.Optimistic = !O.Optimistic; },
      [](AllocatorOptions &O) { O.StorageClass = !O.StorageClass; },
      [](AllocatorOptions &O) { O.BenefitSimplify = !O.BenefitSimplify; },
      [](AllocatorOptions &O) {
        O.PreferenceDecision = !O.PreferenceDecision;
      },
      [](AllocatorOptions &O) {
        O.BSKey = O.BSKey == BenefitKeyStrategy::MaxBenefit
                      ? BenefitKeyStrategy::Delta
                      : BenefitKeyStrategy::MaxBenefit;
      },
      [](AllocatorOptions &O) {
        O.CalleeModel = O.CalleeModel == CalleeCostModel::FirstUserPays
                            ? CalleeCostModel::Shared
                            : CalleeCostModel::FirstUserPays;
      },
      [](AllocatorOptions &O) {
        O.Ordering = static_cast<PriorityOrdering>(
            (static_cast<unsigned>(O.Ordering) + 1) % 3);
      },
      [](AllocatorOptions &O) {
        O.AggressiveCoalescing = !O.AggressiveCoalescing;
      },
      [](AllocatorOptions &O) {
        O.MaterializeSaveRestore = !O.MaterializeSaveRestore;
      },
  };

  Rng R(424242);
  for (int I = 0; I < 200; ++I) {
    AllocatorOptions A = randomOptions(R);
    const std::string Key = A.canonicalKey();
    for (Mutator Mutate : Mutations) {
      AllocatorOptions B = A;
      Mutate(B);
      EXPECT_NE(Key, B.canonicalKey()) << Key;
    }
  }
}

TEST(CanonicalKey, KeyIsAParsableFixpoint) {
  // The wire protocol ships the key and parses it with
  // parseAllocatorOptions: a second trip through text is a fixpoint.
  Rng R(7);
  for (int I = 0; I < 500; ++I) {
    AllocatorOptions A = randomOptions(R);
    AllocatorOptions Back;
    std::string Err;
    ASSERT_TRUE(parseAllocatorOptions(A.canonicalKey(), Back, &Err))
        << A.canonicalKey() << ": " << Err;
    EXPECT_EQ(A.canonicalKey(), Back.canonicalKey());
  }
}

} // namespace
