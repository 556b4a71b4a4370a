//===- tests/TelemetryTest.cpp - Telemetry recorder and (de)serialization -===//

#include "ccra.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <thread>

using namespace ccra;

namespace {

TEST(TelemetrySnapshot, JsonRoundTripIsExact) {
  TelemetrySnapshot Snap;
  Snap.Counters["functions"] = 14.0;
  Snap.Counters["rounds"] = 19.0;
  Snap.Counters["tiny"] = 1e-9;
  Snap.Counters["third"] = 1.0 / 3.0; // not representable in short decimal
  Snap.TimersMs["color"] = 1.7400000000000002;
  Snap.TimersMs["coalesce"] = 0.0;
  Snap.TimersMs["huge"] = 1.23e12;

  TelemetrySnapshot Parsed;
  ASSERT_TRUE(TelemetrySnapshot::fromJson(Snap.toJson(), Parsed));
  EXPECT_EQ(Snap, Parsed);
}

TEST(TelemetrySnapshot, EmptyRoundTrips) {
  TelemetrySnapshot Empty;
  EXPECT_TRUE(Empty.empty());
  TelemetrySnapshot Parsed;
  ASSERT_TRUE(TelemetrySnapshot::fromJson(Empty.toJson(), Parsed));
  EXPECT_EQ(Empty, Parsed);
}

TEST(TelemetrySnapshot, RejectsMalformedJson) {
  TelemetrySnapshot Out;
  EXPECT_FALSE(TelemetrySnapshot::fromJson("", Out));
  EXPECT_FALSE(TelemetrySnapshot::fromJson("{}", Out));
  EXPECT_FALSE(TelemetrySnapshot::fromJson("{\"counters\": {}}", Out));
  EXPECT_FALSE(TelemetrySnapshot::fromJson(
      "{\"counters\": {\"a\": }, \"timers_ms\": {}}", Out));
  EXPECT_FALSE(TelemetrySnapshot::fromJson(
      "{\"counters\": {}, \"timers_ms\": {}} trailing", Out));
}

TEST(TelemetrySnapshot, AccumulateMergesBothMaps) {
  TelemetrySnapshot A, B;
  A.Counters["rounds"] = 2.0;
  A.TimersMs["color"] = 1.0;
  B.Counters["rounds"] = 3.0;
  B.Counters["spilled_ranges"] = 1.0;
  B.TimersMs["color"] = 0.5;
  A += B;
  EXPECT_EQ(A.count("rounds"), 5.0);
  EXPECT_EQ(A.count("spilled_ranges"), 1.0);
  EXPECT_EQ(A.timeMs("color"), 1.5);
  EXPECT_EQ(A.count("missing"), 0.0);
}

TEST(TelemetrySnapshot, WithoutSchedulingCountersStripsOnlySchedKeys) {
  TelemetrySnapshot S;
  S.Counters["rounds"] = 4.0;
  S.Counters["liveness_computes"] = 1.0;
  S.Counters[std::string(telemetry::SchedPrefix) + "scratch_reuses"] = 7.0;
  S.Counters[telemetry::SchedPoolBatches] = 2.0;
  S.TimersMs["color"] = 1.5;
  TelemetrySnapshot Stripped = S.withoutSchedulingCounters();
  EXPECT_EQ(Stripped.Counters.size(), 2u);
  EXPECT_EQ(Stripped.count("rounds"), 4.0);
  EXPECT_EQ(Stripped.count("liveness_computes"), 1.0);
  EXPECT_EQ(Stripped.count(telemetry::SchedPoolBatches), 0.0);
  EXPECT_EQ(Stripped.timeMs("color"), 1.5); // timers are left alone
  // The original is untouched.
  EXPECT_EQ(S.Counters.size(), 4u);
}

TEST(TelemetrySnapshot, CsvHasHeaderAndOneRowPerEntry) {
  TelemetrySnapshot Snap;
  Snap.Counters["rounds"] = 4.0;
  Snap.TimersMs["color"] = 2.5;
  std::ostringstream OS;
  Snap.writeCsv(OS);
  EXPECT_EQ(OS.str(), "kind,name,value\n"
                      "counter,rounds,4\n"
                      "timer_ms,color,2.5\n");
}

TEST(Telemetry, RecorderIsThreadSafe) {
  Telemetry T;
  std::vector<std::thread> Threads;
  for (int W = 0; W < 4; ++W)
    Threads.emplace_back([&T] {
      for (int I = 0; I < 1000; ++I)
        T.addCount("hits");
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(T.count("hits"), 4000.0);
}

TEST(Telemetry, CStringNamesAreKeyedByContentNotAddress) {
  // One buffer carries two names in turn, and a second buffer repeats the
  // first: every record lands on the entry its text names, before and
  // after the recorder is drained.
  Telemetry T;
  char Name[16] = "alpha";
  T.addCount(Name);
  std::snprintf(Name, sizeof Name, "beta");
  T.addCount(Name, 2.0);
  T.noteMax(Name, 5.0);
  T.addTimeMs(Name, 1.5);
  const std::string Alpha = "alpha";
  T.addCount(Alpha.c_str(), 10.0);
  std::snprintf(Name, sizeof Name, "alpha");
  T.addCount(Name);
  TelemetrySnapshot Snap = T.takeSnapshot();
  EXPECT_EQ(Snap.count("alpha"), 12.0);
  EXPECT_EQ(Snap.count("beta"), 5.0);
  EXPECT_EQ(Snap.timeMs("beta"), 1.5);
  EXPECT_EQ(Snap.Counters.size(), 2u);
  EXPECT_EQ(Snap.TimersMs.size(), 1u);

  T.addCount(Name, 3.0);
  EXPECT_EQ(T.snapshot().Counters,
            (std::map<std::string, double>{{"alpha", 3.0}}));
}

TEST(Telemetry, ScopedTimerIsNullSafeAndRecords) {
  { Telemetry::ScopedTimer NoOp(nullptr, "ignored"); }
  Telemetry T;
  {
    Telemetry::ScopedTimer Timer(&T, "phase");
  }
  TelemetrySnapshot Snap = T.snapshot();
  ASSERT_EQ(Snap.TimersMs.count("phase"), 1u);
  EXPECT_GE(Snap.timeMs("phase"), 0.0);
  T.reset();
  EXPECT_TRUE(T.snapshot().empty());
}

TEST(Telemetry, EngineRecordsCountersAndPhaseTimers) {
  RandomProgramParams Params;
  Params.Seed = 3;
  Params.NumFunctions = 4;
  std::unique_ptr<Module> M = generateRandomProgram(Params);
  FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);

  Telemetry T;
  AllocationEngine Engine = EngineBuilder(RegisterConfig(6, 4, 1, 1))
                                .options(improvedOptions())
                                .telemetry(&T)
                                .build();
  ModuleAllocationResult Result = Engine.allocateModule(*M, Freq);

  TelemetrySnapshot Snap = T.snapshot();
  EXPECT_EQ(Snap.count(telemetry::Functions),
            static_cast<double>(Result.PerFunction.size()));
  // Every converged function took at least one round.
  EXPECT_GE(Snap.count(telemetry::Rounds), Snap.count(telemetry::Functions));
  double SpilledRanges = 0.0, CoalescedMoves = 0.0, CalleeRegsPaid = 0.0;
  for (const auto &[F, FA] : Result.PerFunction) {
    (void)F;
    SpilledRanges += FA.SpilledRanges;
    CoalescedMoves += FA.CoalescedMoves;
    CalleeRegsPaid += FA.CalleeRegsPaid;
  }
  EXPECT_EQ(Snap.count(telemetry::SpilledRanges), SpilledRanges);
  EXPECT_EQ(Snap.count(telemetry::CoalescedMoves), CoalescedMoves);
  EXPECT_EQ(Snap.count(telemetry::CalleeRegsPaid), CalleeRegsPaid);
  // The phase timers of the main loop are present and non-negative.
  for (const char *Phase :
       {telemetry::CoalescePhase, telemetry::BuildRangesPhase,
        telemetry::BuildGraphPhase, telemetry::ColorPhase,
        telemetry::VerifyPhase, telemetry::AllocateTotal}) {
    ASSERT_EQ(Snap.TimersMs.count(Phase), 1u) << Phase;
    EXPECT_GE(Snap.timeMs(Phase), 0.0) << Phase;
  }
  // A detached engine records nothing new.
  Engine.setTelemetry(nullptr);
  std::unique_ptr<Module> M2 = generateRandomProgram(Params);
  FrequencyInfo Freq2 = FrequencyInfo::compute(*M2, FrequencyMode::Profile);
  Engine.allocateModule(*M2, Freq2);
  EXPECT_EQ(T.snapshot(), Snap);
}

TEST(Telemetry, ExperimentRunCarriesTelemetry) {
  RandomProgramParams Params;
  Params.Seed = 9;
  std::unique_ptr<Module> M = generateRandomProgram(Params);
  ExperimentRun Run = runExperiment(
      {M.get(), RegisterConfig(6, 4, 1, 1), improvedOptions(),
       FrequencyMode::Profile, /*Jobs=*/1});
  EXPECT_EQ(Run.Telemetry.count(telemetry::Experiments), 1.0);
  EXPECT_GT(Run.Telemetry.count(telemetry::Functions), 0.0);
  // The snapshot survives a JSON round trip unchanged.
  TelemetrySnapshot Parsed;
  ASSERT_TRUE(TelemetrySnapshot::fromJson(Run.Telemetry.toJson(), Parsed));
  EXPECT_EQ(Run.Telemetry, Parsed);
}

} // namespace
