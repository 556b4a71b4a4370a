//===- tests/TelemetryTest.cpp - Telemetry recorder and (de)serialization -===//

#include "ccra.h"
#include "service/WireProtocol.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <thread>

using namespace ccra;
using namespace ccra::telemetry;

namespace {

TEST(TelemetryTable, NamesAreUniqueAndEachKindIsSorted) {
  std::set<std::string> Seen;
  const char *Previous[2] = {nullptr, nullptr};
  for (unsigned I = 0; I < NumMetrics; ++I) {
    const MetricInfo &Row = Metrics[I];
    ASSERT_NE(Row.Name, nullptr) << I;
    const std::string Name = Row.Name;
    EXPECT_FALSE(Name.empty()) << I;
    EXPECT_TRUE(Seen.insert(Name).second) << "duplicate name " << Name;
    // The emitters walk the table: ascending names per kind reproduce the
    // key order of a std::map<std::string, double>.
    const char *&Last = Previous[static_cast<unsigned>(Row.Kind)];
    if (Last) {
      EXPECT_LT(std::string(Last), Name) << "out of order: " << Name;
    }
    Last = Row.Name;
  }
}

/// A reference rendering of the emitters' schema from two sorted
/// name -> value maps: the key order the table's row order must give.
std::string mapJson(const std::map<std::string, double> &Counters,
                    const std::map<std::string, double> &Timers) {
  std::string Out = "{\"counters\": ";
  for (const auto *Map : {&Counters, &Timers}) {
    Out += '{';
    const char *Separator = "";
    char Number[64];
    for (const auto &[Name, Value] : *Map) {
      std::snprintf(Number, sizeof Number, "%.17g", Value);
      Out += Separator;
      Out += '"' + Name + "\": " + Number;
      Separator = ", ";
    }
    Out += '}';
    if (Map == &Counters)
      Out += ", \"timers_ms\": ";
  }
  return Out + "}\n";
}

std::string mapCsv(const std::map<std::string, double> &Counters,
                   const std::map<std::string, double> &Timers) {
  std::string Out = "kind,name,value\n";
  char Number[64];
  for (const auto &[Name, Value] : Counters) {
    std::snprintf(Number, sizeof Number, "%.17g", Value);
    Out += "counter," + Name + ',' + Number + '\n';
  }
  for (const auto &[Name, Value] : Timers) {
    std::snprintf(Number, sizeof Number, "%.17g", Value);
    Out += "timer_ms," + Name + ',' + Number + '\n';
  }
  return Out;
}

TEST(TelemetryTable, EveryIdRendersLikeSortedNameMaps) {
  TelemetrySnapshot Snap;
  std::map<std::string, double> Counters, Timers;
  for (unsigned I = 0; I < NumMetrics; ++I) {
    // Distinct values, some without a short decimal form.
    double Value = I % 3 == 0 ? I / 3.0 : I * 1.5;
    Snap.set(Metric(I), Value);
    (Metrics[I].Kind == MetricKind::Counter ? Counters
                                            : Timers)[Metrics[I].Name] = Value;
  }
  EXPECT_EQ(Snap.toJson(), mapJson(Counters, Timers));
  std::ostringstream Json, Csv;
  Snap.writeJson(Json);
  EXPECT_EQ(Json.str(), mapJson(Counters, Timers));
  Snap.writeCsv(Csv);
  EXPECT_EQ(Csv.str(), mapCsv(Counters, Timers));

  TelemetrySnapshot Parsed;
  ASSERT_TRUE(TelemetrySnapshot::fromJson(Snap.toJson(), Parsed));
  EXPECT_EQ(Snap, Parsed);
}

TEST(TelemetrySnapshot, JsonRoundTripIsExact) {
  TelemetrySnapshot Snap;
  Snap.set(Functions, 14.0);
  Snap.set(Rounds, 19.0);
  Snap.set(SpilledRanges, 1e-9);
  Snap.set(CoalescedMoves, 1.0 / 3.0); // not representable in short decimal
  Snap.set(ColorPhase, 1.7400000000000002);
  Snap.set(CoalescePhase, 0.0);
  Snap.set(VerifyPhase, 1.23e12);

  TelemetrySnapshot Parsed;
  ASSERT_TRUE(TelemetrySnapshot::fromJson(Snap.toJson(), Parsed));
  EXPECT_EQ(Snap, Parsed);
  // A recorded zero stays recorded: it is emitted and parsed back.
  EXPECT_TRUE(Parsed.has(CoalescePhase));
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
      "{\"counters\": {\"rounds\": }, \"timers_ms\": {}}", Out));
  EXPECT_FALSE(TelemetrySnapshot::fromJson(
      "{\"counters\": {}, \"timers_ms\": {}} trailing", Out));
}

TEST(TelemetrySnapshot, RejectsNamesOutsideTheTable) {
  TelemetrySnapshot Out;
  EXPECT_TRUE(TelemetrySnapshot::fromJson(
      "{\"counters\": {\"rounds\": 1}, \"timers_ms\": {\"color\": 2}}", Out));
  EXPECT_FALSE(TelemetrySnapshot::fromJson(
      "{\"counters\": {\"tiny\": 1}, \"timers_ms\": {}}", Out));
  EXPECT_FALSE(TelemetrySnapshot::fromJson(
      "{\"counters\": {}, \"timers_ms\": {\"alloc.total\": 1}}", Out));
  // A row is known under its own kind only.
  EXPECT_FALSE(TelemetrySnapshot::fromJson(
      "{\"counters\": {\"color\": 1}, \"timers_ms\": {}}", Out));
  EXPECT_FALSE(TelemetrySnapshot::fromJson(
      "{\"counters\": {}, \"timers_ms\": {\"rounds\": 1}}", Out));
}

TEST(TelemetrySnapshot, AllocResponseWithAnUnknownNameIsRejected) {
  AllocResponse R;
  R.Telemetry.set(Rounds, 4);
  std::string Payload = encodeAllocResponse(R);
  AllocResponse Back;
  std::string Err;
  ASSERT_TRUE(parseAllocResponse(Payload, Back, &Err)) << Err;
  EXPECT_EQ(R.Telemetry, Back.Telemetry);

  const std::string Known = "\"rounds\"";
  std::size_t At = Payload.find(Known);
  ASSERT_NE(At, std::string::npos) << Payload;
  Payload.replace(At, Known.size(), "\"tiny\"");
  EXPECT_FALSE(parseAllocResponse(Payload, Back, &Err));
  EXPECT_EQ(Err, "bad telemetry json");
}

TEST(TelemetrySnapshot, AccumulateMergesBothMaps) {
  TelemetrySnapshot A, B;
  A.set(Rounds, 2.0);
  A.set(ColorPhase, 1.0);
  B.set(Rounds, 3.0);
  B.set(SpilledRanges, 1.0);
  B.set(ColorPhase, 0.5);
  A += B;
  EXPECT_EQ(A.count(Rounds), 5.0);
  EXPECT_EQ(A.count(SpilledRanges), 1.0);
  EXPECT_EQ(A.timeMs(ColorPhase), 1.5);
  EXPECT_EQ(A.count(Functions), 0.0);
  EXPECT_FALSE(A.has(Functions));
}

TEST(TelemetrySnapshot, PeakCountersMergeByMax) {
  Telemetry A, B;
  A.noteMax(AllocPeakGraphBytes, 100.0);
  A.noteMax(AllocPeakGraphBytes, 40.0);
  B.noteMax(AllocPeakGraphBytes, 70.0);
  A.merge(B);
  EXPECT_EQ(A.count(AllocPeakGraphBytes), 100.0);
  B.noteMax(AllocPeakGraphBytes, 250.0);
  A.merge(B);
  EXPECT_EQ(A.count(AllocPeakGraphBytes), 250.0);
  // Sum rows still add across the same merges.
  Telemetry C;
  C.addCount(Rounds, 2.0);
  A.merge(C);
  A.merge(C);
  EXPECT_EQ(A.count(Rounds), 4.0);
}

TEST(TelemetrySnapshot, WithoutSchedulingCountersStripsOnlySchedKeys) {
  TelemetrySnapshot S;
  S.set(Rounds, 4.0);
  S.set(LivenessComputes, 1.0);
  S.set(SchedScratchReuses, 7.0);
  S.set(SchedPoolBatches, 2.0);
  S.set(AllocPeakGraphBytes, 4096.0);
  S.set(ColorPhase, 1.5);
  TelemetrySnapshot Stripped = S.withoutSchedulingCounters();
  EXPECT_EQ(Stripped.count(Rounds), 4.0);
  EXPECT_EQ(Stripped.count(LivenessComputes), 1.0);
  EXPECT_FALSE(Stripped.has(SchedScratchReuses));
  EXPECT_FALSE(Stripped.has(SchedPoolBatches));
  EXPECT_FALSE(Stripped.has(AllocPeakGraphBytes));
  // Timers are wall clock: scheduling-dependent as well.
  EXPECT_FALSE(Stripped.has(ColorPhase));
  TelemetrySnapshot Expected;
  Expected.set(Rounds, 4.0);
  Expected.set(LivenessComputes, 1.0);
  EXPECT_EQ(Stripped, Expected);
  // The original is untouched.
  EXPECT_TRUE(S.has(SchedScratchReuses));
  EXPECT_TRUE(S.has(ColorPhase));
}

TEST(TelemetrySnapshot, CsvHasHeaderAndOneRowPerEntry) {
  TelemetrySnapshot Snap;
  Snap.set(Rounds, 4.0);
  Snap.set(ColorPhase, 2.5);
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
        T.addCount(Rounds);
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(T.count(Rounds), 4000.0);
}

TEST(Telemetry, ScopedTimerIsNullSafeAndRecords) {
  { Telemetry::ScopedTimer NoOp(nullptr, ColorPhase); }
  Telemetry T;
  {
    Telemetry::ScopedTimer Timer(&T, ColorPhase);
  }
  TelemetrySnapshot Snap = T.snapshot();
  ASSERT_TRUE(Snap.has(ColorPhase));
  EXPECT_GE(Snap.timeMs(ColorPhase), 0.0);
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
  EXPECT_EQ(Snap.count(Functions),
            static_cast<double>(Result.PerFunction.size()));
  // Every converged function took at least one round.
  EXPECT_GE(Snap.count(Rounds), Snap.count(Functions));
  double Spilled = 0.0, Coalesced = 0.0, CalleePaid = 0.0;
  for (const auto &[F, FA] : Result.PerFunction) {
    (void)F;
    Spilled += FA.SpilledRanges;
    Coalesced += FA.CoalescedMoves;
    CalleePaid += FA.CalleeRegsPaid;
  }
  EXPECT_EQ(Snap.count(SpilledRanges), Spilled);
  EXPECT_EQ(Snap.count(CoalescedMoves), Coalesced);
  EXPECT_EQ(Snap.count(CalleeRegsPaid), CalleePaid);
  // The phase timers of the main loop are present and non-negative.
  for (Metric Phase : {CoalescePhase, BuildRangesPhase, BuildGraphPhase,
                       ColorPhase, VerifyPhase, AllocateTotal}) {
    ASSERT_TRUE(Snap.has(Phase)) << info(Phase).Name;
    EXPECT_GE(Snap.timeMs(Phase), 0.0) << info(Phase).Name;
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
  EXPECT_EQ(Run.Telemetry.count(Experiments), 1.0);
  EXPECT_GT(Run.Telemetry.count(Functions), 0.0);
  // The snapshot survives a JSON round trip unchanged.
  TelemetrySnapshot Parsed;
  ASSERT_TRUE(TelemetrySnapshot::fromJson(Run.Telemetry.toJson(), Parsed));
  EXPECT_EQ(Run.Telemetry, Parsed);
}

} // namespace
