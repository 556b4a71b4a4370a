//===- bench/perf_scaling.cpp - Per-function scaling benchmark ------------===//
//
// Measures how one allocation scales with live-range count V: a single
// synthetic function per size (staggered overlapping chains — linear-size
// interval graphs with bounded degree, the shape where sparse adjacency
// and worklist simplification pay off) is allocated twice per size:
//
//   reference: the O(V^2) reference simplifier over the dense square
//              bit matrix (LegacySimplifier = true, GraphMode = Dense) —
//              quadratic time and memory, capped at the size where it
//              stops being worth the wait.
//   hybrid:    the worklist simplifier over the shipped Auto policy
//              (dense matrix up to DenseNodeThreshold nodes, sorted
//              sparse adjacency above it).
//
// Both arms must produce bit-identical ExperimentResults at every size
// where both run; any divergence exits non-zero. Per-size wall clock, the
// alloc.simplify phase timer, and the alloc.peak_graph_bytes high-water
// mark are printed as a table and written to BENCH_scaling.json, where
// near-linear growth of the hybrid arm (and the reference arm's quadratic
// departure) is the acceptance signal.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "workloads/SyntheticBuilder.h"

#include <chrono>
#include <fstream>
#include <vector>

using namespace ccra;

namespace {

/// Largest size the quadratic reference arm runs at; beyond this only the
/// hybrid arm is timed (the gate has already covered both arms below).
constexpr unsigned ReferenceCap = 20000;

/// Every value is live across the next OverlapDepth definitions, so node
/// degree is ~2 * OverlapDepth independent of V and the clique number is
/// OverlapDepth + 1 — comfortably colorable with the config below, which
/// keeps every size on the one-round no-spill path and makes the timing a
/// clean read of build + simplify + select.
constexpr unsigned OverlapDepth = 6;

std::unique_ptr<Module> buildChainProgram(unsigned NumValues) {
  auto M = std::make_unique<Module>("scaling-" + std::to_string(NumValues));
  Function *F = M->createFunction("chain");
  SyntheticFunctionBuilder B(*F, /*Seed=*/0x5ca11e + NumValues);
  B.staggeredChain(RegBank::Int, NumValues, OverlapDepth);
  B.finish();
  M->setEntryFunction(F);
  return M;
}

struct ArmSample {
  double Seconds = 0;
  double SimplifyMs = 0;
  double PeakGraphBytes = 0;
  ExperimentResult Result;
  bool Ran = false;
};

ArmSample timeArm(const Module &M, const RegisterConfig &Config,
                  const AllocatorOptions &Opts, int Reps) {
  ArmSample Sample;
  Sample.Seconds = 1e9;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    ExperimentRun Run =
        runExperiment({&M, Config, Opts, FrequencyMode::Profile, /*Jobs=*/1});
    double Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    Sample.Seconds = std::min(Sample.Seconds, Seconds);
    Sample.SimplifyMs = Run.Telemetry.timeMs(telemetry::AllocSimplifyPhase);
    Sample.PeakGraphBytes = Run.Telemetry.count(telemetry::AllocPeakGraphBytes);
    Sample.Result = Run.Result;
    Sample.Ran = true;
  }
  return Sample;
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

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);

  const std::vector<unsigned> Sizes = {1000, 2000, 5000, 10000, 20000, 50000};
  // 8 + 8 int registers: clique number 7 fits, so no size ever spills and
  // both arms stay on the single-round path.
  RegisterConfig Config(/*Ri=*/8, /*Rf=*/4, /*Ei=*/8, /*Ef=*/4);

  AllocatorOptions Hybrid = improvedOptions();
  Hybrid.Verify = false; // verified by ctest; keep the timing loop hot
  Hybrid.GraphMode = GraphRep::Auto;
  AllocatorOptions Reference = Hybrid;
  Reference.LegacySimplifier = true;
  Reference.GraphMode = GraphRep::Dense;

  TextTable Table;
  Table.setHeader(
      {"V", "ref s", "hybrid s", "speedup", "simplify ms", "graph MiB"});
  unsigned Divergences = 0;
  std::ofstream Json("BENCH_scaling.json");
  Json << "{\n  \"sizes\": [";

  for (std::size_t I = 0; I < Sizes.size(); ++I) {
    unsigned V = Sizes[I];
    std::unique_ptr<Module> M = buildChainProgram(V);
    int Reps = V <= 10000 ? 3 : 1;

    ArmSample Hyb = timeArm(*M, Config, Hybrid, Reps);
    ArmSample Ref;
    if (V <= ReferenceCap) {
      Ref = timeArm(*M, Config, Reference, Reps);
      if (!sameResult(Ref.Result, Hyb.Result)) {
        std::cerr << "DIVERGENCE at V=" << V
                  << " (reference vs hybrid allocation)\n";
        ++Divergences;
      }
    }

    double Speedup = Ref.Ran && Hyb.Seconds > 0 ? Ref.Seconds / Hyb.Seconds
                                                : 0.0;
    Table.addRow({std::to_string(V),
                  Ref.Ran ? TextTable::formatDouble(Ref.Seconds, 3) : "-",
                  TextTable::formatDouble(Hyb.Seconds, 3),
                  Ref.Ran ? TextTable::formatDouble(Speedup, 2) + "x" : "-",
                  TextTable::formatDouble(Hyb.SimplifyMs, 2),
                  TextTable::formatDouble(
                      Hyb.PeakGraphBytes / (1024.0 * 1024.0), 2)});

    Json << (I ? ",\n            " : "") << "{\"v\": " << V
         << ", \"reference_seconds\": "
         << (Ref.Ran ? Ref.Seconds : -1.0)
         << ", \"hybrid_seconds\": " << Hyb.Seconds
         << ", \"speedup\": " << Speedup
         << ", \"hybrid_simplify_ms\": " << Hyb.SimplifyMs
         << ", \"reference_simplify_ms\": "
         << (Ref.Ran ? Ref.SimplifyMs : -1.0)
         << ", \"hybrid_peak_graph_bytes\": " << Hyb.PeakGraphBytes
         << ", \"reference_peak_graph_bytes\": "
         << (Ref.Ran ? Ref.PeakGraphBytes : -1.0) << "}";
  }

  Json << "],\n  \"reference_cap\": " << ReferenceCap
       << ",\n  \"bit_identical\": " << (Divergences == 0 ? "true" : "false")
       << "\n}\n";

  std::cout << "== perf_scaling: staggered chains, overlap depth "
            << OverlapDepth << " ==\n";
  if (Args.Csv)
    Table.printCsv(std::cout);
  else
    Table.print(std::cout);
  std::cout << "bit-identical results: " << (Divergences == 0 ? "yes" : "NO")
            << " (reference arm capped at V=" << ReferenceCap << ")\n";
  return Divergences == 0 ? 0 : 1;
}
