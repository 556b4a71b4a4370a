//===- bench/perf_grid.cpp - Grid-throughput benchmark --------------------===//
//
// Measures the wall-clock throughput of a register-configuration sweep —
// the shape of every reproduction figure — with and without the shared
// infrastructure this library's grid path uses. Both arms run the same
// default allocator options; only the harness differs:
//
//   legacy:    plain per-spec runExperiment calls — per-point frequency
//              and liveness computation and a private (nested) pool per
//              engine.
//   optimized: one ModuleAnalysisCache and one shared ThreadPool for the
//              whole grid (runExperiments), baseline-liveness seeding,
//              replayed round-1 coalescing per register budget, and nested
//              batches on the one pool instead of nested pools.
//
// The grid is repeated, the two paths interleaved, until the optimized
// path has run for at least MinOptimizedSeconds; the reported times are
// the mean per grid over those repetitions, so the gated number rests on a
// second of work rather than on one grid of a few milliseconds. Each arm
// reports wall-clock seconds and the process CPU seconds it used (all
// threads); tools/bench_gate gates the optimized arm's CPU per point,
// which a shared host's load moves far less than wall-clock throughput.
//
// The two paths must produce bit-identical ExperimentResults; any
// divergence is a correctness bug and exits non-zero (tools/check.sh runs
// this as a Release-mode smoke). The speedup, telemetry, and the
// at-most-one-liveness-compute-per-round invariant are reported on stdout
// and written to BENCH_grid.json.
//
//===----------------------------------------------------------------------===//

#include "ccra.h"
#include "support/Table.h"
#include "workloads/SpecProxies.h"

#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>

using namespace ccra;

namespace {

/// The grid repeats until the optimized path's measured time, summed over
/// repetitions, reaches this.
constexpr double MinOptimizedSeconds = 1.0;

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// CPU seconds this process has used so far, summed over its threads.
double processCpuSeconds() {
  timespec TS{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) + TS.tv_nsec * 1e-9;
}

/// The legacy execution model: no shared cache, no shared pool (each
/// parallel engine spawns its own), grid-level fan-out via a private pool.
std::vector<ExperimentRun>
runLegacyGrid(const std::vector<ExperimentSpec> &Specs, unsigned Jobs) {
  std::vector<ExperimentRun> Runs(Specs.size());
  if (Jobs <= 1) {
    for (std::size_t I = 0; I < Specs.size(); ++I)
      Runs[I] = runExperiment(Specs[I]);
    return Runs;
  }
  ThreadPool Pool(Jobs);
  Pool.parallelForEach(Specs.size(), [&](std::size_t I) {
    Runs[I] = runExperiment(Specs[I]);
  });
  return Runs;
}

bool sameResult(const ExperimentResult &A, const ExperimentResult &B) {
  return A.Costs.Spill == B.Costs.Spill &&
         A.Costs.CallerSave == B.Costs.CallerSave &&
         A.Costs.CalleeSave == B.Costs.CalleeSave &&
         A.Costs.Shuffle == B.Costs.Shuffle &&
         A.SpilledRanges == B.SpilledRanges &&
         A.VoluntarySpills == B.VoluntarySpills &&
         A.CoalescedMoves == B.CoalescedMoves &&
         A.CalleeRegsPaid == B.CalleeRegsPaid &&
         A.MaxRounds == B.MaxRounds && A.Cycles == B.Cycles;
}

} // namespace

int main() {
  unsigned Jobs = ThreadPool::defaultParallelism();

  // The sweep: every standard register configuration (17) for three of the
  // larger proxies — at least a 24-point grid. Spec.Jobs = 2 gives each
  // point internal function parallelism, which on the legacy path means a
  // nested pool per engine (the oversubscription this PR removes) and on
  // the optimized path means nested batches on the one shared pool.
  std::vector<std::unique_ptr<Module>> Programs;
  for (const char *Name : {"gcc", "espresso", "fpppp"})
    Programs.push_back(buildSpecProxy(Name));

  AllocatorOptions Opts = improvedOptions();
  Opts.Verify = false; // measured elsewhere; keep the loop hot

  std::vector<ExperimentSpec> Specs;
  for (const auto &M : Programs)
    for (const RegisterConfig &Config : standardConfigSweep())
      Specs.push_back(
          {M.get(), Config, Opts, FrequencyMode::Profile, /*Jobs=*/2});

  // Warm-up pass (untimed) so both timed runs see hot caches and a
  // faulted-in heap, then interleaved repetitions until the optimized path
  // has run for MinOptimizedSeconds; each path reports its mean per grid.
  runLegacyGrid(Specs, Jobs);
  double LegacyTotal = 0, OptimizedTotal = 0;
  double LegacyCpu = 0, OptimizedCpu = 0;
  unsigned Reps = 0;
  std::vector<ExperimentRun> LegacyRuns, OptimizedRuns;
  TelemetrySnapshot GridTelemetry;
  do {
    auto T0 = std::chrono::steady_clock::now();
    double C0 = processCpuSeconds();
    LegacyRuns = runLegacyGrid(Specs, Jobs);
    LegacyCpu += processCpuSeconds() - C0;
    LegacyTotal += secondsSince(T0);

    auto T1 = std::chrono::steady_clock::now();
    double C1 = processCpuSeconds();
    OptimizedRuns = runExperiments(Specs, Jobs, &GridTelemetry);
    OptimizedCpu += processCpuSeconds() - C1;
    OptimizedTotal += secondsSince(T1);
    ++Reps;
  } while (OptimizedTotal < MinOptimizedSeconds);
  double LegacySeconds = LegacyTotal / Reps;
  double OptimizedSeconds = OptimizedTotal / Reps;
  double LegacyCpuSeconds = LegacyCpu / Reps;
  double OptimizedCpuSeconds = OptimizedCpu / Reps;

  // Correctness gate: the optimized grid must reproduce the legacy grid
  // bit for bit (same costs, same statistics, same cycle estimates).
  unsigned Divergences = 0;
  for (std::size_t I = 0; I < LegacyRuns.size(); ++I)
    if (!sameResult(LegacyRuns[I].Result, OptimizedRuns[I].Result)) {
      std::cerr << "DIVERGENCE at grid point " << I << "\n";
      ++Divergences;
    }

  // Invariant gate: with incremental liveness each allocation runs the
  // full dataflow at most once per round (exactly zero times when the
  // baseline seed covers round 1).
  double Computes = 0, Rounds = 0, CacheHits = 0, ScratchReuses = 0;
  for (const ExperimentRun &Run : OptimizedRuns) {
    Computes += Run.Telemetry.count(telemetry::LivenessComputes);
    Rounds += Run.Telemetry.count(telemetry::Rounds);
    CacheHits += Run.Telemetry.count(telemetry::SchedAnalysisCacheHits);
    ScratchReuses += Run.Telemetry.count(telemetry::SchedScratchReuses);
  }
  bool ComputesBounded = Computes <= Rounds;

  double Speedup = OptimizedSeconds > 0 ? LegacySeconds / OptimizedSeconds
                                        : 0.0;
  std::cout << "== perf_grid: " << Specs.size()
            << "-point sweep, jobs=" << Jobs << ", " << Reps
            << " repetitions ==\n"
            << "legacy:     " << TextTable::formatDouble(LegacySeconds, 4)
            << " s per grid, "
            << TextTable::formatDouble(LegacyCpuSeconds, 4) << " s CPU\n"
            << "optimized:  " << TextTable::formatDouble(OptimizedSeconds, 4)
            << " s per grid, "
            << TextTable::formatDouble(OptimizedCpuSeconds, 4)
            << " s CPU (" << TextTable::formatDouble(OptimizedTotal, 2)
            << " s in all)\n"
            << "speedup:    " << TextTable::formatDouble(Speedup, 2) << "x\n"
            << "bit-identical results: "
            << (Divergences == 0 ? "yes" : "NO") << "\n"
            << "liveness computes <= rounds: " << Computes << " <= " << Rounds
            << (ComputesBounded ? "" : "  VIOLATED") << "\n"
            << "analysis cache hits: " << CacheHits
            << ", scratch reuses: " << ScratchReuses << "\n";

  std::ofstream Json("BENCH_grid.json");
  Json << "{\n"
       << "  \"points\": " << Specs.size() << ",\n"
       << "  \"jobs\": " << Jobs << ",\n"
       << "  \"repetitions\": " << Reps << ",\n"
       << "  \"legacy_seconds\": " << LegacySeconds << ",\n"
       << "  \"optimized_seconds\": " << OptimizedSeconds << ",\n"
       << "  \"legacy_cpu_seconds\": " << LegacyCpuSeconds << ",\n"
       << "  \"optimized_cpu_seconds\": " << OptimizedCpuSeconds << ",\n"
       << "  \"speedup\": " << Speedup << ",\n"
       << "  \"bit_identical\": " << (Divergences == 0 ? "true" : "false")
       << ",\n"
       << "  \"liveness_computes\": " << Computes << ",\n"
       << "  \"rounds\": " << Rounds << ",\n"
       << "  \"analysis_cache_hits\": " << CacheHits << ",\n"
       << "  \"scratch_reuses\": " << ScratchReuses << ",\n"
       << "  \"grid\": ";
  GridTelemetry.writeJson(Json);
  Json << "\n}\n";
  return (Divergences == 0 && ComputesBounded) ? 0 : 1;
}
