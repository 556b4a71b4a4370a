//===- bench/paper_tables.cpp - Every reproduced table and figure ---------===//
//
// Prints the paper's evaluation as text tables on stdout, in one fixed
// order: Figures 2, 6 and 7, Tables 2 and 3, Figure 9, Figure 10 with the
// §9.1 color-ordering comparison, Figure 11, Table 4, the design-choice
// ablations, and the real-code corpus (examples/corpus_c through the C
// frontend). EXPERIMENTS.md discusses each table against the paper.
//
// Every table is data: its programs and register configurations (the
// rows' points), its allocator arms, its frequency source and its cell
// formulas. All grid points of all tables run as one runExperiments grid
// (one analysis cache, one pool); every cell is deterministic, so the
// output is the same on every run. BENCH_paper.txt at the repository root
// is this output, and the PaperTables.Golden ctest compares a fresh run
// with it byte for byte.
//
//===----------------------------------------------------------------------===//

#include "ccra.h"
#include "frontend/Frontend.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "workloads/SpecProxies.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <tuple>

#ifndef CCRA_SOURCE_DIR
#define CCRA_SOURCE_DIR "."
#endif

using namespace ccra;

namespace {

/// One allocation a row needs under each of its table's arms.
struct Point {
  const Module *Program;
  RegisterConfig Config;
};

/// A row's results: R[point][arm].
using Results = std::vector<std::vector<ExperimentResult>>;

struct Row {
  std::vector<std::string> Labels; ///< the leading text cells
  std::vector<Point> Points;
};

struct Column {
  std::string Header;
  std::function<std::string(const Results &)> Cell;
};

struct Table {
  std::string Title;
  std::vector<std::string> LabelHeaders;
  FrequencyMode Mode;
  std::vector<AllocatorOptions> Arms;
  std::vector<Column> Columns;
  std::vector<Row> Rows;
  /// Printed after the table; sees every row's results.
  std::function<std::string(const std::vector<Results> &)> Footer;
};

using Field = double (*)(const ExperimentResult &);
double spill(const ExperimentResult &R) { return R.Costs.Spill; }
double callerSave(const ExperimentResult &R) { return R.Costs.CallerSave; }
double calleeSave(const ExperimentResult &R) { return R.Costs.CalleeSave; }
double callCost(const ExperimentResult &R) {
  return R.Costs.CallerSave + R.Costs.CalleeSave;
}
double total(const ExperimentResult &R) { return R.Costs.total(); }
double cycles(const ExperimentResult &R) { return R.Cycles; }

/// \p F of arm \p Arm, summed over the row's points in order.
double sum(const Results &R, unsigned Arm, Field F) {
  double Sum = 0.0;
  for (const std::vector<ExperimentResult> &AtPoint : R)
    Sum += F(AtPoint[Arm]);
  return Sum;
}

/// Overhead ratio "Base / Other" with the paper's convention: bigger than
/// 1.00 means Other removes overhead relative to Base.
double overheadRatio(double Base, double Other) {
  if (Other == 0.0)
    return Base == 0.0 ? 1.0 : 999.0;
  return Base / Other;
}

/// Share of \p Total that is call cost; 0 when there is no overhead.
double callFraction(double CallCost, double Total) {
  return Total == 0.0 ? 0.0 : CallCost / Total;
}

/// Arm 0's total overhead over arm \p Arm's, summed over the row's points.
double ratio(const Results &R, unsigned Arm) {
  return overheadRatio(sum(R, 0, total), sum(R, Arm, total));
}

Column count(std::string Header, unsigned Arm, Field F) {
  return {std::move(Header), [=](const Results &R) {
            return TextTable::formatCount(sum(R, Arm, F));
          }};
}

Column ratioColumn(std::string Header, unsigned Arm, int Precision = 2) {
  return {std::move(Header), [=](const Results &R) {
            return TextTable::formatDouble(ratio(R, Arm), Precision);
          }};
}

/// Arm 0 over arm 1 at the row's point \p P alone.
Column ratioAt(std::string Header, unsigned P) {
  return {std::move(Header), [=](const Results &R) {
            return TextTable::formatDouble(
                overheadRatio(total(R[P][0]), total(R[P][1])));
          }};
}

std::function<std::string(const std::vector<Results> &)>
text(std::string Text) {
  return [=](const std::vector<Results> &) { return Text; };
}

/// One row per configuration, labelled by it.
std::vector<Row> configRows(const Module *M,
                            const std::vector<RegisterConfig> &Configs) {
  std::vector<Row> Rows;
  for (const RegisterConfig &Config : Configs)
    Rows.push_back({{Config.label()}, {{M, Config}}});
  return Rows;
}

/// The SPEC proxies, built once.
struct Proxies {
  std::map<std::string, std::unique_ptr<Module>> Modules;

  Proxies() {
    for (const std::string &Name : specProxyNames())
      Modules[Name] = buildSpecProxy(Name);
  }
  const Module *operator[](const std::string &Name) const {
    return Modules.at(Name).get();
  }

  /// One row per named program, with a point at each configuration.
  std::vector<Row> rows(const std::vector<std::string> &Names,
                        const std::vector<RegisterConfig> &Configs) const {
    std::vector<Row> Rows;
    for (const std::string &Name : Names) {
      Row R{{Name}, {}};
      for (const RegisterConfig &Config : Configs)
        R.Points.push_back({(*this)[Name], Config});
      Rows.push_back(std::move(R));
    }
    return Rows;
  }
};

struct CorpusProgram {
  std::string Name;
  std::unique_ptr<Module> M;
  unsigned Calls = 0; ///< static call-site count, for the call-dense pick
};

unsigned countCalls(const Module &M) {
  unsigned Calls = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const Instruction &I : BB->instructions())
        if (I.Op == Opcode::Call)
          ++Calls;
  return Calls;
}

/// Every examples/corpus_c program through the C frontend, by path order.
std::vector<CorpusProgram> compileCorpus() {
  std::vector<std::string> Paths;
  for (const auto &Entry : std::filesystem::directory_iterator(
           CCRA_SOURCE_DIR "/examples/corpus_c"))
    if (Entry.path().extension() == ".c")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());

  std::vector<CorpusProgram> Programs;
  for (const std::string &Path : Paths) {
    CompileResult R = Frontend::compileFile(Path);
    if (!R.ok()) {
      std::cerr << Path << ": compile failed";
      if (!R.Diags.empty())
        std::cerr << ": " << R.Diags.front().render();
      std::cerr << '\n';
      std::exit(1);
    }
    unsigned Calls = countCalls(*R.M);
    Programs.push_back(
        {Frontend::moduleNameForPath(Path), std::move(R.M), Calls});
  }
  return Programs;
}

const std::vector<FrequencyMode> BothModes = {FrequencyMode::Static,
                                              FrequencyMode::Profile};

std::vector<Table> paperTables(const Proxies &P,
                               const std::vector<CorpusProgram> &Corpus) {
  const std::vector<RegisterConfig> Sweep = standardConfigSweep();
  const AllocatorOptions Base = baseChaitinOptions();
  std::vector<Table> Tables;

  // Figure 2: base Chaitin's cost by component. Spill cost collapses once
  // registers suffice; call cost then dominates, and more registers can
  // cost more (ranges move into callee-save registers).
  for (const char *Program : {"eqntott", "ear"})
    Tables.push_back(
        {"Figure 2: base Chaitin register-allocation cost, " +
             std::string(Program) + " (dynamic overhead operations)",
         {"config"},
         FrequencyMode::Profile,
         {Base},
         {count("spill", 0, spill), count("caller_sv", 0, callerSave),
          count("callee_sv", 0, calleeSave), count("total", 0, total)},
         configRows(P[Program], Sweep),
         text("\n")});

  // Figure 6: base / improved overhead for each enhancement combination.
  for (const std::string &Program : specProxyNames())
    Tables.push_back({"Figure 6: base/improved overhead ratio, " + Program +
                          " (dynamic)",
                      {"config"},
                      FrequencyMode::Profile,
                      {Base, improvedOptions(true, false, false),
                       improvedOptions(true, false, true),
                       improvedOptions(true, true, false),
                       improvedOptions(true, true, true)},
                      {ratioColumn("SC", 1), ratioColumn("SC+PR", 2),
                       ratioColumn("SC+BS", 3), ratioColumn("SC+BS+PR", 4)},
                      configRows(P[Program], Sweep),
                      text("\n")});

  // Figure 7: improved coloring's absolute overhead, the companion to
  // Figure 2, and its largest factor over base.
  for (const auto &[Program, Paper] : {std::pair{"ear", "45"},
                                       std::pair{"eqntott", "66"}})
    Tables.push_back(
        {"Figure 7: improved (SC+BS+PR) register overhead, " +
             std::string(Program) + " (dynamic)",
         {"config"},
         FrequencyMode::Profile,
         {Base, improvedOptions()},
         {count("spill", 1, spill), count("caller_sv", 1, callerSave),
          count("callee_sv", 1, calleeSave),
          count("improved_total", 1, total), count("base_total", 0, total),
          ratioColumn("base/improved", 1, 1)},
         configRows(P[Program], Sweep),
         [Paper](const std::vector<Results> &Rows) {
           double Best = 0.0;
           for (const Results &R : Rows)
             Best = std::max(Best, ratio(R, 1));
           return "max base/improved factor: " +
                  TextTable::formatDouble(Best, 1) + "  (paper: " + Paper +
                  "x)\n\n";
         }});

  // Tables 2 and 3: base / optimistic under each frequency source. Cells
  // below 1.00 are configurations where optimistic coloring adds overhead.
  const std::vector<RegisterConfig> Compact = {
      RegisterConfig(6, 4, 0, 0),  RegisterConfig(8, 6, 0, 0),
      RegisterConfig(7, 5, 1, 1),  RegisterConfig(8, 6, 2, 2),
      RegisterConfig(9, 7, 3, 3),  RegisterConfig(10, 8, 4, 4),
      RegisterConfig(12, 9, 5, 5), RegisterConfig(18, 10, 8, 6),
  };
  std::vector<Column> CompactColumns;
  for (unsigned C = 0; C < Compact.size(); ++C)
    CompactColumns.push_back(ratioAt(Compact[C].label(), C));
  for (const auto &[Number, Mode, Source] :
       {std::tuple{"2", FrequencyMode::Static, "static estimates"},
        std::tuple{"3", FrequencyMode::Profile, "dynamic profiles"}})
    Tables.push_back({"Table " + std::string(Number) +
                          ": base-Chaitin / optimistic overhead ratio (" +
                          Source + "; <1.00 = optimistic is worse)",
                      {"program"},
                      Mode,
                      {Base, optimisticOptions()},
                      CompactColumns,
                      P.rows(specProxyNames(), Compact),
                      {}});

  // Figure 9: fpppp under static estimates; optimistic wins while
  // registers are scarce, improved once they are plentiful.
  Tables.push_back({"Figure 9: fpppp, ratios over base Chaitin (static; "
                    ">1.00 = better than base)",
                    {"config"},
                    FrequencyMode::Static,
                    {Base, optimisticOptions(), improvedOptions(),
                     improvedOptimisticOptions()},
                    {ratioColumn("optimistic", 1), ratioColumn("improved", 2),
                     ratioColumn("improved+opt", 3)},
                    configRows(P["fpppp"], Sweep),
                    {}});

  // Figure 10: priority-based (Chow, no splitting) against improved
  // coloring, then §9.1's three priority color orderings.
  for (const char *Program :
       {"alvinn", "nasa7", "fpppp", "espresso", "gcc", "tomcatv"})
    for (FrequencyMode Mode : BothModes)
      Tables.push_back({"Figure 10: " + std::string(Program) + " (" +
                            frequencyModeName(Mode) +
                            "), ratios over base Chaitin",
                        {"config"},
                        Mode,
                        {Base, priorityOptions(), improvedOptions()},
                        {ratioColumn("priority", 1),
                         ratioColumn("improved", 2)},
                        configRows(P[Program], Sweep),
                        text("\n")});
  Tables.push_back(
      {"§9.1: priority-based color-ordering heuristics (total overhead, "
       "dynamic)",
       {"program"},
       FrequencyMode::Profile,
       {priorityOptions(PriorityOrdering::RemoveUnconstrained),
        priorityOptions(PriorityOrdering::SortUnconstrained),
        priorityOptions(PriorityOrdering::FullSort)},
       {count("remove_unconstrained", 0, total),
        count("sort_unconstrained", 1, total), count("full_sort", 2, total)},
       P.rows(specProxyNames(), {RegisterConfig(9, 7, 3, 3)}),
       {}});

  // Figure 11: the CBH cost model against improved coloring.
  for (const char *Program : {"alvinn", "ear", "li", "matrix300", "nasa7",
                              "gcc", "compress", "tomcatv"})
    for (FrequencyMode Mode : BothModes)
      Tables.push_back({"Figure 11: " + std::string(Program) + " (" +
                            frequencyModeName(Mode) +
                            "), ratios over base Chaitin",
                        {"config"},
                        Mode,
                        {Base, cbhOptions(), improvedOptions()},
                        {ratioColumn("CBH", 1), ratioColumn("improved", 2)},
                        configRows(P[Program], Sweep),
                        text("\n")});

  // Table 4: speedup of improved over optimistic coloring on the full
  // register file, under the cycle model of estimateDynamicCycles
  // (harness/Experiment.h).
  Tables.push_back(
      {"Table 4: execution-time speedup of improved (SC+BS+PR) over "
       "optimistic, full MIPS register file",
       {"program"},
       FrequencyMode::Profile,
       {optimisticOptions(), improvedOptions()},
       {count("optimistic_cycles", 0, cycles),
        count("improved_cycles", 1, cycles),
        {"speedup_%",
         [](const Results &R) {
           return TextTable::formatDouble(
               (cycles(R[0][0]) / cycles(R[0][1]) - 1.0) * 100.0, 1);
         }}},
       P.rows({"compress", "eqntott", "li", "sc", "spice"}, {fullMipsConfig()}),
       text("(paper: compress 2.9, eqntott 2.2, li 2.8, sc 4.4, "
            "spice 1.0)\n")});

  // Ablations of DESIGN.md's design choices: the callee-save cost model
  // (§4), the benefit-driven simplification key (§5) and coalescing
  // aggressiveness.
  AllocatorOptions FirstUser = improvedOptions(), Shared = improvedOptions();
  FirstUser.CalleeModel = CalleeCostModel::FirstUserPays;
  Shared.CalleeModel = CalleeCostModel::Shared;
  AllocatorOptions MaxKey = improvedOptions(), DeltaKey = improvedOptions();
  MaxKey.BSKey = BenefitKeyStrategy::MaxBenefit;
  DeltaKey.BSKey = BenefitKeyStrategy::Delta;
  AllocatorOptions Aggressive = improvedOptions();
  Aggressive.AggressiveCoalescing = true;
  struct Ablation {
    const char *Title, *NameA, *NameB;
    AllocatorOptions A, B;
  };
  const RegisterConfig AblationConfig(9, 7, 3, 3);
  for (const Ablation &A :
       {Ablation{"callee-save cost model (§4)", "first_user", "shared",
                 FirstUser, Shared},
        Ablation{"benefit-simplification key (§5)", "max_key", "delta_key",
                 MaxKey, DeltaKey},
        Ablation{"coalescing aggressiveness", "aggressive", "conservative",
                 Aggressive, improvedOptions()}})
    Tables.push_back(
        {"Ablation: " + std::string(A.Title) + " at " +
             AblationConfig.label(),
         {"program"},
         FrequencyMode::Profile,
         {A.A, A.B},
         {count(A.NameA, 0, total), count(A.NameB, 1, total),
          {std::string(A.NameA) + "/" + A.NameB,
           [](const Results &R) {
             return TextTable::formatDouble(
                 safeRatio(total(R[0][0]), total(R[0][1])));
           }}},
         P.rows(specProxyNames(), {AblationConfig}),
         text("\n")});

  // Real-code corpus, aggregate: whole-corpus overhead per configuration
  // and allocator family, and base's call-cost share of it.
  std::vector<Row> CorpusRows;
  for (const RegisterConfig &Config : Sweep) {
    Row R{{Config.label()}, {}};
    for (const CorpusProgram &Program : Corpus)
      R.Points.push_back({Program.M.get(), Config});
    CorpusRows.push_back(std::move(R));
  }
  Tables.push_back(
      {"Real-code corpus (" + std::to_string(Corpus.size()) +
           " programs, C frontend): total overhead per allocator",
       {"config"},
       FrequencyMode::Profile,
       {Base, optimisticOptions(), priorityOptions(), cbhOptions(),
        improvedOptions()},
       {count("base", 0, total), count("optimistic", 1, total),
        count("priority", 2, total), count("cbh", 3, total),
        count("improved", 4, total),
        {"base_call_frac",
         [](const Results &R) {
           return TextTable::formatDouble(
               callFraction(sum(R, 0, callCost), sum(R, 0, total)));
         }},
        ratioColumn("base/improved", 4)},
       std::move(CorpusRows),
       text("\n")});

  // Real-code corpus, the eight most call-dense programs: base / improved
  // at representative budgets, and base's call-cost share at the largest,
  // where spill cost is gone.
  std::vector<const CorpusProgram *> Dense;
  for (const CorpusProgram &Program : Corpus)
    Dense.push_back(&Program);
  std::stable_sort(Dense.begin(), Dense.end(),
                   [](const CorpusProgram *A, const CorpusProgram *B) {
                     return A->Calls > B->Calls;
                   });
  Dense.resize(std::min<std::size_t>(8, Dense.size()));
  const std::vector<RegisterConfig> Spot = {
      RegisterConfig(6, 4, 0, 0), RegisterConfig(8, 6, 2, 2),
      RegisterConfig(9, 7, 3, 3), fullMipsConfig()};
  std::vector<Row> DenseRows;
  for (const CorpusProgram *Program : Dense) {
    Row R{{Program->Name, std::to_string(Program->Calls)}, {}};
    for (const RegisterConfig &Config : Spot)
      R.Points.push_back({Program->M.get(), Config});
    DenseRows.push_back(std::move(R));
  }
  std::vector<Column> SpotColumns;
  for (unsigned C = 0; C < Spot.size(); ++C)
    SpotColumns.push_back(ratioAt("b/i " + Spot[C].label(), C));
  SpotColumns.push_back(
      {"call_frac " + Spot.back().label(), [](const Results &R) {
         return TextTable::formatDouble(
             callFraction(callCost(R.back()[0]), total(R.back()[0])));
       }});
  Tables.push_back({"Most call-dense programs: base/improved overhead ratio",
                    {"program", "calls"},
                    FrequencyMode::Profile,
                    {Base, improvedOptions()},
                    std::move(SpotColumns),
                    std::move(DenseRows),
                    {}});
  return Tables;
}

} // namespace

int main() {
  Proxies P;
  std::vector<CorpusProgram> Corpus = compileCorpus();
  std::vector<Table> Tables = paperTables(P, Corpus);

  std::vector<ExperimentSpec> Specs;
  for (const Table &T : Tables)
    for (const Row &R : T.Rows)
      for (const Point &Pt : R.Points)
        for (const AllocatorOptions &Arm : T.Arms)
          Specs.push_back({Pt.Program, Pt.Config, Arm, T.Mode});
  std::vector<ExperimentRun> Runs = runExperiments(Specs, /*Jobs=*/0);

  std::size_t Next = 0;
  for (const Table &T : Tables) {
    TextTable Text;
    std::vector<std::string> Header = T.LabelHeaders;
    for (const Column &C : T.Columns)
      Header.push_back(C.Header);
    Text.setHeader(std::move(Header));

    std::vector<Results> RowResults;
    for (const Row &R : T.Rows) {
      Results Res(R.Points.size());
      for (std::vector<ExperimentResult> &AtPoint : Res)
        for (unsigned Arm = 0; Arm < T.Arms.size(); ++Arm)
          AtPoint.push_back(Runs[Next++].Result);
      std::vector<std::string> Cells = R.Labels;
      for (const Column &C : T.Columns)
        Cells.push_back(C.Cell(Res));
      Text.addRow(std::move(Cells));
      RowResults.push_back(std::move(Res));
    }
    std::cout << "== " << T.Title << " ==\n";
    Text.print(std::cout);
    if (T.Footer)
      std::cout << T.Footer(RowResults);
  }
  return 0;
}
