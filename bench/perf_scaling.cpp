//===- bench/perf_scaling.cpp - Per-function scaling benchmark ------------===//
//
// Measures how one allocation scales with live-range count V: a single
// synthetic function per size (staggered overlapping chains — linear-size
// interval graphs with bounded degree, the shape where sparse adjacency
// and worklist simplification pay off) is run two ways per size:
//
//   reference: on the function's round-1 live ranges, only the graph
//              build and simplification, over the dense square bit matrix
//              with the O(V^2) reference simplifier
//              (fuzz/Oracle.h) — quadratic time and memory,
//              capped at the size where it stops being worth the wait.
//   hybrid:    the whole shipped allocation: the worklist simplifier over
//              the Auto policy (dense matrix up to DenseNodeThreshold
//              nodes, sorted sparse adjacency above it).
//
// At every size where the reference runs, the Auto graph and the worklist
// simplifier must build the same edges and the same color stack, spill
// set and optimistic flags as the reference kernels; any divergence exits
// non-zero. Per-size wall clock, simplify time and graph bytes are printed
// as a table and written to BENCH_scaling.json, where near-linear growth
// of the hybrid arm (and the reference's quadratic departure) is the
// acceptance signal.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/BenefitKeys.h"
#include "fuzz/Oracle.h"
#include "regalloc/VRegClasses.h"
#include "workloads/SyntheticBuilder.h"

#include <algorithm>
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
  bool Ran = false;
};

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

ArmSample timeArm(const Module &M, const RegisterConfig &Config,
                  const AllocatorOptions &Opts, int Reps) {
  ArmSample Sample;
  Sample.Seconds = 1e9;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    ExperimentRun Run =
        runExperiment({&M, Config, Opts, FrequencyMode::Profile, /*Jobs=*/1});
    Sample.Seconds = std::min(Sample.Seconds, secondsSince(T0));
    Sample.SimplifyMs = Run.Telemetry.timeMs(telemetry::AllocSimplifyPhase);
    Sample.PeakGraphBytes = Run.Telemetry.count(telemetry::AllocPeakGraphBytes);
    Sample.Ran = true;
  }
  return Sample;
}

/// The reference kernels over the function's round-1 live ranges (the
/// chains carry no copies, so coalescing would leave them as they are):
/// dense graph build plus reference simplification, best of \p Reps, under
/// the §5 key the improved allocator uses. \p Identical reports whether
/// the Auto graph and the worklist simplifier produce the same edges,
/// stack, spill set and optimistic flags.
ArmSample timeReference(Module &M, const RegisterConfig &Config, int Reps,
                        bool &Identical) {
  Function &F = *M.functions().front();
  MachineDescription MD(Config);
  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  Liveness LV = Liveness::compute(F);
  LiveRangeSet LRS =
      LiveRangeSet::build(F, LV, Freq, VRegClasses(F.numVRegs()));
  AllocationContext Ctx{F,   MD, Freq, std::move(LV), std::move(LRS),
                        InterferenceGraph(), Freq.entryFrequency(F), {}};
  Simplifier::KeyFn Key = [](const LiveRange &LR) {
    return benefitSimplificationKey(LR, BenefitKeyStrategy::Delta);
  };
  ArmSample Sample;
  Sample.Seconds = 1e9;
  SimplifyResult Ref;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    Ctx.IG = InterferenceGraph::build(F, Ctx.LV, Ctx.LRS, nullptr,
                                      GraphRep::Dense);
    auto T1 = std::chrono::steady_clock::now();
    Ref = referenceSimplify(Ctx, /*Optimistic=*/false, Key);
    Sample.SimplifyMs = secondsSince(T1) * 1e3;
    Sample.Seconds = std::min(Sample.Seconds, secondsSince(T0));
  }
  Sample.PeakGraphBytes = static_cast<double>(Ctx.IG.memoryBytes());
  Sample.Ran = true;

  InterferenceGraph Dense = std::move(Ctx.IG);
  Ctx.IG = InterferenceGraph::build(F, Ctx.LV, Ctx.LRS);
  SimplifyResult Hyb = Simplifier::run(Ctx, /*Optimistic=*/false, Key);
  Identical = Hyb.Stack == Ref.Stack && Hyb.SpilledNodes == Ref.SpilledNodes &&
              Hyb.PushedOptimistically == Ref.PushedOptimistically &&
              Dense.numEdges() == Ctx.IG.numEdges();
  for (unsigned N = 0; Identical && N < Dense.numNodes(); ++N)
    Identical = std::ranges::equal(Dense.neighbors(N), Ctx.IG.neighbors(N));
  return Sample;
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

  TextTable Table;
  Table.setHeader(
      {"V", "ref kernel s", "hybrid s", "speedup", "simplify ms", "graph MiB"});
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
      bool Identical = false;
      Ref = timeReference(*M, Config, Reps, Identical);
      if (!Identical) {
        std::cerr << "DIVERGENCE at V=" << V
                  << " (reference vs Auto graph + worklist: edges or stack)\n";
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
