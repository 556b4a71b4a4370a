//===- tests/IntegrationTest.cpp - End-to-end allocation tests ------------===//
//
// Whole-pipeline tests: build a workload, run every allocator over several
// register configurations and both frequency modes, and check the
// qualitative relationships the paper reports.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "workloads/SpecProxies.h"

#include <gtest/gtest.h>

using namespace ccra;

namespace {

/// All allocator configurations exercised by the integration sweeps.
std::vector<AllocatorOptions> allAllocatorOptions() {
  return {
      baseChaitinOptions(),
      optimisticOptions(),
      improvedOptions(true, false, false),
      improvedOptions(true, true, false),
      improvedOptions(true, true, true),
      improvedOptimisticOptions(),
      priorityOptions(PriorityOrdering::FullSort),
      priorityOptions(PriorityOrdering::RemoveUnconstrained),
      priorityOptions(PriorityOrdering::SortUnconstrained),
      cbhOptions(),
  };
}

TEST(Integration, EveryAllocatorConvergesOnEqntott) {
  std::unique_ptr<Module> M = buildSpecProxy("eqntott");
  for (const AllocatorOptions &Opts : allAllocatorOptions()) {
    ExperimentResult R =
        runExperiment({M.get(), RegisterConfig(8, 6, 2, 2), Opts}).Result;
    EXPECT_GE(R.Costs.total(), 0.0) << Opts.describe();
    EXPECT_GT(R.Cycles, 0.0) << Opts.describe();
  }
}

TEST(Integration, EveryProxyAllocatesUnderMinimalAndFullConfigs) {
  for (const std::string &Name : specProxyNames()) {
    SCOPED_TRACE(Name);
    std::unique_ptr<Module> M = buildSpecProxy(Name);
    for (const RegisterConfig &Config :
         {minimalMipsConfig(), fullMipsConfig()}) {
      ExperimentResult Base =
          runExperiment({M.get(), Config, baseChaitinOptions()}).Result;
      ExperimentResult Improved =
          runExperiment({M.get(), Config, improvedOptions()}).Result;
      EXPECT_GE(Base.Costs.total(), 0.0);
      EXPECT_GE(Improved.Costs.total(), 0.0);
    }
  }
}

TEST(Integration, ImprovedBeatsBaseOnEqntottWithManyRegisters) {
  // §7: with ample registers the improved allocator removes nearly all of
  // the base allocator's callee-save overhead (factors of tens).
  std::unique_ptr<Module> M = buildSpecProxy("eqntott");
  ExperimentResult Base =
      runExperiment({M.get(), fullMipsConfig(), baseChaitinOptions()}).Result;
  ExperimentResult Improved =
      runExperiment({M.get(), fullMipsConfig(), improvedOptions()}).Result;
  EXPECT_GT(Base.Costs.total(), 5.0 * Improved.Costs.total());
}

TEST(Integration, TomcatvIsInsensitiveToCallCostMachinery) {
  // §7 class 4: one big function without calls — all three enhancements
  // are no-ops.
  std::unique_ptr<Module> M = buildSpecProxy("tomcatv");
  for (const RegisterConfig &Config : standardConfigSweep()) {
    ExperimentResult Base =
        runExperiment({M.get(), Config, baseChaitinOptions()}).Result;
    ExperimentResult Improved =
        runExperiment({M.get(), Config, improvedOptions()}).Result;
    EXPECT_NEAR(Base.Costs.total(), Improved.Costs.total(),
                1e-6 * (1.0 + Base.Costs.total()))
        << Config.label();
  }
}

TEST(Integration, Figure2ShapeSpillCollapsesThenCallCostGrows) {
  // The paper's central observation: spill cost vanishes with enough
  // registers, call cost takes over, and *more* registers then increase
  // the base allocator's total cost.
  std::unique_ptr<Module> M = buildSpecProxy("eqntott");
  ExperimentResult Minimal = runExperiment({M.get(), minimalMipsConfig(),
                                            baseChaitinOptions()})
                                 .Result;
  ExperimentResult Mid = runExperiment({M.get(), RegisterConfig(11, 8, 5, 4),
                                        baseChaitinOptions()})
                             .Result;
  ExperimentResult Full =
      runExperiment({M.get(), fullMipsConfig(), baseChaitinOptions()}).Result;
  EXPECT_GT(Minimal.Costs.Spill, 20.0 * Mid.Costs.total());
  EXPECT_DOUBLE_EQ(Mid.Costs.Spill, 0.0);
  EXPECT_DOUBLE_EQ(Full.Costs.Spill, 0.0);
  // Adding registers beyond the sweet spot makes the base allocator worse.
  EXPECT_GT(Full.Costs.total(), 1.2 * Mid.Costs.total());
  EXPECT_GT(Full.Costs.CalleeSave, Mid.Costs.CalleeSave);
}

TEST(Integration, Figure9ShapeOptimisticEarlyImprovedLate) {
  std::unique_ptr<Module> M = buildSpecProxy("fpppp");
  auto Ratio = [&](const RegisterConfig &Config,
                   const AllocatorOptions &Opts) {
    ExperimentResult Base = runExperiment({M.get(), Config,
                                           baseChaitinOptions(),
                                           FrequencyMode::Static})
                                .Result;
    ExperimentResult Other =
        runExperiment({M.get(), Config, Opts, FrequencyMode::Static}).Result;
    return Base.Costs.total() / Other.Costs.total();
  };
  // Optimistic coloring shines while registers are scarce...
  EXPECT_GT(Ratio(RegisterConfig(8, 6, 0, 0), optimisticOptions()), 1.2);
  // ...and has nothing left once the blocked structures are colorable.
  EXPECT_NEAR(Ratio(fullMipsConfig(), optimisticOptions()), 1.0, 0.05);
  // Improved coloring is the mirror image.
  EXPECT_GT(Ratio(fullMipsConfig(), improvedOptions()), 1.5);
  // The hybrid tracks the better of the two at both ends.
  EXPECT_GT(Ratio(RegisterConfig(8, 6, 0, 0), improvedOptimisticOptions()),
            1.2);
  EXPECT_GT(Ratio(fullMipsConfig(), improvedOptimisticOptions()), 1.5);
}

TEST(Integration, OptimisticCanLoseOnceCallCostCounts) {
  // Tables 2/3's darkly shaded cells: optimistic coloring below 1.00.
  std::unique_ptr<Module> M = buildSpecProxy("li");
  RegisterConfig Config(9, 7, 3, 3);
  ExperimentResult Base =
      runExperiment({M.get(), Config, baseChaitinOptions()}).Result;
  ExperimentResult Optimistic =
      runExperiment({M.get(), Config, optimisticOptions()}).Result;
  EXPECT_LT(Base.Costs.total(), Optimistic.Costs.total());
  // But its *spill* component never exceeds base Chaitin's (§8).
  EXPECT_LE(Optimistic.Costs.Spill, Base.Costs.Spill + 1e-9);
}

TEST(Integration, CBHStarvesCallCrossingRanges) {
  // Figure 11 / §10: with few callee-save registers CBH spills the hot
  // crossing ranges that improved coloring keeps in caller-save registers.
  std::unique_ptr<Module> M = buildSpecProxy("matrix300");
  RegisterConfig Config(10, 8, 3, 3);
  ExperimentResult Base =
      runExperiment({M.get(), Config, baseChaitinOptions()}).Result;
  ExperimentResult Cbh = runExperiment({M.get(), Config, cbhOptions()}).Result;
  ExperimentResult Improved =
      runExperiment({M.get(), Config, improvedOptions()}).Result;
  EXPECT_GT(Cbh.Costs.total(), 2.0 * Base.Costs.total());
  EXPECT_LE(Improved.Costs.total(), Base.Costs.total() * 1.0 + 1e-9);
  // CBH recovers ground as callee-save registers are added.
  ExperimentResult CbhFull =
      runExperiment({M.get(), fullMipsConfig(), cbhOptions()}).Result;
  ExperimentResult BaseFull =
      runExperiment({M.get(), fullMipsConfig(), baseChaitinOptions()}).Result;
  EXPECT_LT(CbhFull.Costs.total() / BaseFull.Costs.total(),
            Cbh.Costs.total() / Base.Costs.total());
}

TEST(Integration, PreferenceDecisionHelpsNasa7WithoutBS) {
  // §6: PR arbitrates callee-save contention by cost. Its effect is
  // visible over SC alone (benefit-driven simplification independently
  // achieves the same ordering when enabled — see EXPERIMENTS.md).
  std::unique_ptr<Module> M = buildSpecProxy("nasa7");
  RegisterConfig Config(10, 8, 4, 4);
  ExperimentResult Sc =
      runExperiment({M.get(), Config, improvedOptions(true, false, false)})
          .Result;
  ExperimentResult ScPr =
      runExperiment({M.get(), Config, improvedOptions(true, false, true)})
          .Result;
  EXPECT_GT(Sc.Costs.total(), 1.5 * ScPr.Costs.total());
}

TEST(Integration, Table4SpeedupOrdering) {
  // spice has the least to gain (the paper's 1.0% row).
  auto Speedup = [](const std::string &Name) {
    std::unique_ptr<Module> M = buildSpecProxy(Name);
    ExperimentResult Optimistic =
        runExperiment({M.get(), fullMipsConfig(), optimisticOptions()}).Result;
    ExperimentResult Improved =
        runExperiment({M.get(), fullMipsConfig(), improvedOptions()}).Result;
    return Optimistic.Cycles / Improved.Cycles - 1.0;
  };
  double Spice = Speedup("spice");
  EXPECT_GT(Spice, 0.0);
  EXPECT_LT(Spice, Speedup("sc"));
  EXPECT_LT(Spice, Speedup("eqntott"));
  EXPECT_LT(Spice, Speedup("compress"));
}

TEST(Integration, StaticAndDynamicModesBothWork) {
  std::unique_ptr<Module> M = buildSpecProxy("ear");
  for (FrequencyMode Mode : {FrequencyMode::Static, FrequencyMode::Profile}) {
    ExperimentResult R = runExperiment({M.get(), RegisterConfig(9, 7, 3, 3),
                                        improvedOptions(), Mode})
                             .Result;
    EXPECT_GE(R.Costs.total(), 0.0);
  }
}

} // namespace
