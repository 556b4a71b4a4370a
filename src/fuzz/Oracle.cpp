//===- fuzz/Oracle.cpp ----------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "analysis/AnalysisCache.h"
#include "core/BenefitKeys.h"
#include "harness/Experiment.h"
#include "ir/Cloner.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "regalloc/Coalescer.h"
#include "regalloc/CostAccounting.h"
#include "regalloc/GraphReconstructor.h"
#include "regalloc/SpillCodeInserter.h"
#include "regalloc/VRegClasses.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

using namespace ccra;

namespace {

/// Everything one leg's allocation produced, keyed so legs are comparable
/// (clones differ by pointer, so functions are keyed by name).
struct LegCapture {
  CostBreakdown Totals;
  std::map<std::string, FunctionAllocation> PerFunction;
  std::string AllocatedIR;
};

bool sameCosts(const CostBreakdown &A, const CostBreakdown &B) {
  return A.Spill == B.Spill && A.CallerSave == B.CallerSave &&
         A.CalleeSave == B.CalleeSave && A.Shuffle == B.Shuffle;
}

std::string costString(const CostBreakdown &C) {
  std::ostringstream OS;
  OS << "spill=" << C.Spill << " caller=" << C.CallerSave
     << " callee=" << C.CalleeSave << " shuffle=" << C.Shuffle;
  return OS.str();
}

/// First differing line of two printed modules, for compact reports.
std::string firstDiffLine(const std::string &A, const std::string &B) {
  std::istringstream SA(A), SB(B);
  std::string LA, LB;
  unsigned Line = 0;
  while (true) {
    ++Line;
    bool HasA = static_cast<bool>(std::getline(SA, LA));
    bool HasB = static_cast<bool>(std::getline(SB, LB));
    if (!HasA && !HasB)
      return "(identical?)";
    if (!HasA || !HasB || LA != LB)
      return "line " + std::to_string(Line) + ": baseline '" +
             (HasA ? LA : "<eof>") + "' vs '" + (HasB ? LB : "<eof>") + "'";
  }
}

/// Allocates a private clone of \p M under \p Leg, appending soundness
/// findings to \p Report as it goes. Empty when the configuration cannot
/// color \p M (reported as an "uncolorable" finding).
std::optional<LegCapture> runLeg(const Module &M, const OracleLeg &Leg,
                                 const OracleOptions &OO,
                                 ModuleAnalysisCache &Cache,
                                 OracleReport &Report) {
  auto Fail = [&](const std::string &Oracle, const std::string &Detail) {
    Report.Failures.push_back({Leg.Name, Oracle, Detail});
  };

  // A seeded leg shares the lattice's cache, keyed on the pristine source
  // module: frequencies, round-1 liveness and round-1 coalescing transfer
  // to any clone (the sharing contract the experiment grid relies on).
  SourceAllocation Job(M, Leg.SeedFromCache ? &Cache : nullptr);
  Telemetry T;
  AllocationOutcome Outcome =
      Job.run(OO.Config, Leg.Opts, OO.Mode, Leg.Opts.Jobs, T);
  ++Report.LegsRun;
  if (!Outcome.ok()) {
    Fail("uncolorable", Outcome.Diagnostic);
    return std::nullopt;
  }
  const ModuleAllocationResult &Result = Outcome.Result;
  Module *Clone = &Job.module();
  const FrequencyInfo &Freq = Job.frequencies();

  LegCapture Cap;
  Cap.Totals = Result.Totals;
  CostBreakdown Measured;
  for (const auto &F : Clone->functions()) {
    if (F->isDeclaration())
      continue;
    const FunctionAllocation &FA = Result.PerFunction.at(F.get());
    // Soundness: the post-allocation verifier ran in report-only mode.
    for (const std::string &E : FA.VerifyErrors)
      Fail("verify", E);
    Measured += measureCostFromCode(*F, Freq);
    Cap.PerFunction[F->getName()] = FA;
  }

  // Soundness: allocated code is still well-formed IR.
  std::vector<std::string> IrErrors;
  if (!verifyModule(*Clone, &IrErrors))
    Fail("ir-verify", IrErrors.empty() ? "module verification failed"
                                       : IrErrors.front());

  // Soundness: costs are finite and non-negative.
  for (double C : {Result.Totals.Spill, Result.Totals.CallerSave,
                   Result.Totals.CalleeSave, Result.Totals.Shuffle})
    if (!std::isfinite(C) || C < 0.0) {
      Fail("cost-domain", "non-finite or negative cost component: " +
                              costString(Result.Totals));
      break;
    }

  // Soundness: §3 cost reconciliation — the overhead instructions actually
  // in the code weigh exactly what the assignment-derived analysis says
  // (requires materialized save/restore code, which every leg enables).
  auto Reconciles = [](double A, double B, double RelTol) {
    return std::abs(A - B) <= RelTol * (1.0 + std::abs(B));
  };
  if (!Reconciles(Measured.Spill, Result.Totals.Spill, 1e-6) ||
      !Reconciles(Measured.CallerSave, Result.Totals.CallerSave, 1e-6) ||
      !Reconciles(Measured.CalleeSave, Result.Totals.CalleeSave, 1e-6) ||
      !Reconciles(Measured.Shuffle, Result.Totals.Shuffle, 1e-9))
    Fail("cost-reconcile", "measured {" + costString(Measured) +
                               "} vs analytic {" +
                               costString(Result.Totals) + "}");

  std::ostringstream OS;
  printModule(*Clone, OS);
  Cap.AllocatedIR = OS.str();
  return Cap;
}

bool locationsEqual(const Location &A, const Location &B) {
  return A.isRegister() == B.isRegister() &&
         (!A.isRegister() || A.Reg == B.Reg);
}

void diffAgainstBaseline(const LegCapture &Base, const LegCapture &Leg,
                         const std::string &LegName, OracleReport &Report) {
  auto Fail = [&](const std::string &Oracle, const std::string &Detail) {
    Report.Failures.push_back({LegName, Oracle, Detail});
  };

  if (!sameCosts(Base.Totals, Leg.Totals))
    Fail("totals-diff", "baseline {" + costString(Base.Totals) + "} vs {" +
                            costString(Leg.Totals) + "}");

  for (const auto &[Name, BaseFA] : Base.PerFunction) {
    auto It = Leg.PerFunction.find(Name);
    if (It == Leg.PerFunction.end()) {
      Fail("function-set-diff", "@" + Name + " missing from leg result");
      continue;
    }
    const FunctionAllocation &FA = It->second;
    if (!sameCosts(BaseFA.Costs, FA.Costs))
      Fail("cost-diff", "@" + Name + ": baseline {" +
                            costString(BaseFA.Costs) + "} vs {" +
                            costString(FA.Costs) + "}");
    if (BaseFA.Rounds != FA.Rounds ||
        BaseFA.SpilledRanges != FA.SpilledRanges ||
        BaseFA.VoluntarySpills != FA.VoluntarySpills ||
        BaseFA.CoalescedMoves != FA.CoalescedMoves ||
        BaseFA.CalleeRegsPaid != FA.CalleeRegsPaid)
      Fail("counter-diff",
           "@" + Name + ": rounds " + std::to_string(BaseFA.Rounds) + "/" +
               std::to_string(FA.Rounds) + " spilled " +
               std::to_string(BaseFA.SpilledRanges) + "/" +
               std::to_string(FA.SpilledRanges) + " voluntary " +
               std::to_string(BaseFA.VoluntarySpills) + "/" +
               std::to_string(FA.VoluntarySpills) + " coalesced " +
               std::to_string(BaseFA.CoalescedMoves) + "/" +
               std::to_string(FA.CoalescedMoves) + " calleePaid " +
               std::to_string(BaseFA.CalleeRegsPaid) + "/" +
               std::to_string(FA.CalleeRegsPaid));
    if (BaseFA.VRegLocations.size() != FA.VRegLocations.size())
      Fail("location-diff", "@" + Name + " recorded " +
                                std::to_string(FA.VRegLocations.size()) +
                                " vregs, baseline " +
                                std::to_string(BaseFA.VRegLocations.size()));
    for (std::size_t V = 0; V < BaseFA.VRegLocations.size(); ++V) {
      const std::optional<Location> &Loc = BaseFA.VRegLocations[V];
      if (V >= FA.VRegLocations.size() ||
          FA.VRegLocations[V].has_value() != Loc.has_value() ||
          (Loc && !locationsEqual(*FA.VRegLocations[V], *Loc))) {
        Fail("location-diff", "@" + Name + " vreg " + std::to_string(V) +
                                  " placed differently");
        break;
      }
    }
  }
  for (const auto &[Name, FA] : Leg.PerFunction) {
    (void)FA;
    if (!Base.PerFunction.count(Name))
      Fail("function-set-diff", "@" + Name + " extra in leg result");
  }

  if (Base.AllocatedIR != Leg.AllocatedIR)
    Fail("ir-diff", firstDiffLine(Base.AllocatedIR, Leg.AllocatedIR));
}

/// Same nodes and edges (finalized neighbor lists are ascending).
bool sameEdges(const InterferenceGraph &A, const InterferenceGraph &B) {
  if (A.numNodes() != B.numNodes() || A.numEdges() != B.numEdges())
    return false;
  for (unsigned N = 0; N < A.numNodes(); ++N)
    if (!std::ranges::equal(A.neighbors(N), B.neighbors(N)))
      return false;
  return true;
}

/// Same ranges (metrics included) and the same range for every register.
bool sameRanges(const LiveRangeSet &A, const LiveRangeSet &B,
                unsigned NumVRegs) {
  if (A.ranges() != B.ranges())
    return false;
  for (unsigned V = 0; V < NumVRegs; ++V)
    if (A.rangeIdOf(VirtReg(V)) != B.rangeIdOf(VirtReg(V)))
      return false;
  return true;
}

/// Runs every function body of two clones of \p M through the engine's
/// round loop — coalesce, build, simplify, spill what simplification
/// spilled, repeat (at most 16 rounds) — with the engine's components on
/// one clone and their references on the other, comparing each round:
/// incremental against recompute-every-pass coalescing (classes, deleted
/// copies, final liveness, live ranges, graph edges), the dense and the
/// sparse graph against the register-granularity reference scan, the
/// worklist against the O(V^2) reference simplifier (pessimistic and
/// optimistic, in id order and under the §5 key), CBH's worklist
/// simplification against its rescan, and — after a spill that left no
/// copies, where the engine patches the round's state with
/// GraphReconstructor — that patched state against the next round's
/// rebuild (liveness, live ranges, graph edges). The engine runs one path
/// through each component; this is where the others live.
void checkComponents(const Module &M, const OracleOptions &OO,
                     OracleReport &Report) {
  MachineDescription MD(OO.Config);
  std::unique_ptr<Module> Inc = cloneModule(M), Ref = cloneModule(M);
  FrequencyInfo Freq = FrequencyInfo::compute(*Inc, OO.Mode);
  FrequencyInfo RefFreq = Freq.remappedTo(*Inc, *Ref);
  Simplifier::KeyFn BenefitKey = [](const LiveRange &LR) {
    return benefitSimplificationKey(LR, BenefitKeyStrategy::Delta);
  };
  for (std::size_t I = 0; I < Inc->functions().size(); ++I) {
    Function &F = *Inc->functions()[I];
    Function &G = *Ref->functions()[I];
    if (F.isDeclaration())
      continue;
    ++Report.ComponentChecks;
    VRegClasses Classes(F.numVRegs()), RefClasses(G.numVRegs());
    // The previous round's spill, reconstructed as the engine does it.
    bool Reconstructed = false;
    Liveness PatchedLV;
    LiveRangeSet PatchedLRS;
    InterferenceGraph PatchedIG;
    bool Failed = false;
    for (unsigned Round = 1; Round <= 16 && !Failed; ++Round) {
      auto Check = [&](bool Ok, const std::string &Oracle) {
        if (!Ok)
          Report.Failures.push_back({"component", Oracle,
                                     "@" + F.getName() + " round " +
                                         std::to_string(Round)});
        Failed |= !Ok;
      };

      Liveness LV, RefLV;
      LiveRangeSet LRS, RefLRS;
      InterferenceGraph IG, RefIG;
      CoalesceRequest Req, RefReq;
      RefReq.IncrementalLiveness = false;
      Coalescer::run(F, Classes, MD, Freq, LV, Req, LRS, IG);
      Coalescer::run(G, RefClasses, MD, RefFreq, RefLV, RefReq, RefLRS, RefIG);
      bool SameClasses = Classes.size() == RefClasses.size();
      for (unsigned V = 0; SameClasses && V < Classes.size(); ++V)
        SameClasses = Classes.find(VirtReg(V)) == RefClasses.find(VirtReg(V));
      Check(SameClasses, "coalesce-classes");
      std::string Code, RefCode;
      printFunction(F, Code);
      printFunction(G, RefCode);
      Check(Code == RefCode, "coalesce-code");
      Check(LV == RefLV, "coalesce-liveness");
      Check(sameRanges(LRS, RefLRS, F.numVRegs()), "coalesce-ranges");
      Check(sameEdges(IG, RefIG), "coalesce-graph");
      if (Reconstructed)
        Check(LV == PatchedLV && sameRanges(LRS, PatchedLRS, F.numVRegs()) &&
                  sameEdges(IG, PatchedIG),
              "reconstruct-rebuild");

      InterferenceGraph Dense =
          InterferenceGraph::build(F, LV, LRS, nullptr, GraphRep::Dense);
      InterferenceGraph Reference = referenceInterference(F, LV, LRS);
      Check(sameEdges(Dense, Reference), "graph-reference-dense");
      Check(sameEdges(InterferenceGraph::build(F, LV, LRS, nullptr,
                                               GraphRep::Sparse),
                      Reference),
            "graph-reference-sparse");

      AllocationContext Ctx{F,   MD, Freq, std::move(LV), std::move(LRS),
                            std::move(Dense), Freq.entryFrequency(F), {}};
      SimplifyResult Spiller;
      for (bool Optimistic : {false, true})
        for (const Simplifier::KeyFn &Key :
             {Simplifier::KeyFn(), BenefitKey}) {
          SimplifyResult A = Simplifier::run(Ctx, Optimistic, Key);
          SimplifyResult B = referenceSimplify(Ctx, Optimistic, Key);
          Check(A.Stack == B.Stack && A.SpilledNodes == B.SpilledNodes &&
                    A.PushedOptimistically == B.PushedOptimistically,
                "simplifier-reference");
          if (!Optimistic && Key)
            Spiller = std::move(A);
        }
      CBHSimplifyResult CBH = CBHAllocator::simplify(Ctx);
      CBHSimplifyResult RefCBH = referenceCBHSimplify(Ctx);
      Check(CBH.Stack == RefCBH.Stack &&
                CBH.SpilledNodes == RefCBH.SpilledNodes &&
                CBH.PushedBlocked == RefCBH.PushedBlocked &&
                std::equal(CBH.Unlocked, CBH.Unlocked + NumRegBanks,
                           RefCBH.Unlocked),
            "cbh-simplify-reference");
      if (Spiller.SpilledNodes.empty())
        break;

      // Spill what pessimistic benefit-keyed simplification spilled, in
      // both clones alike, so the next round sees reload temporaries and
      // the graphs spill code produces.
      std::vector<int> SpillIndex(Ctx.LRS.numRanges(), -1);
      for (std::size_t S = 0; S < Spiller.SpilledNodes.size(); ++S)
        SpillIndex[Spiller.SpilledNodes[S]] = static_cast<int>(S);
      std::vector<std::vector<VirtReg>> SpilledClasses(
          Spiller.SpilledNodes.size());
      for (unsigned V = 0; V < F.numVRegs(); ++V) {
        int Range = Ctx.LRS.rangeIdOf(VirtReg(V));
        if (Range >= 0 && SpillIndex[Range] >= 0)
          SpilledClasses[SpillIndex[Range]].push_back(VirtReg(V));
      }
      Reconstructed = GraphReconstructor::hasNoCopies(F);
      unsigned OldNumVRegs = F.numVRegs();
      SpillCodeInserter::run(F, SpilledClasses);
      SpillCodeInserter::run(G, SpilledClasses);
      Classes.grow(F.numVRegs());
      RefClasses.grow(G.numVRegs());
      if (Reconstructed) {
        GraphReconstructor::apply(F, Freq, Ctx.LV, Ctx.LRS, IG,
                                  Spiller.SpilledNodes, OldNumVRegs);
        PatchedLV = std::move(Ctx.LV);
        PatchedLRS = std::move(Ctx.LRS);
        PatchedIG = std::move(IG);
      }
    }
  }
}

} // namespace

std::vector<OracleLeg> ccra::oracleLattice(unsigned ParallelJobs,
                                           bool SoundnessSweep) {
  // Every leg materializes save/restore code (the reconciliation oracle
  // needs the overhead instructions in the code) and runs the allocation
  // verifier in report-only mode (a violation is a finding, not an abort).
  auto Common = [](AllocatorOptions O) {
    O.MaterializeSaveRestore = true;
    O.Verify = true;
    O.VerifyReportOnly = true;
    return O;
  };
  AllocatorOptions Base = Common(improvedOptions());
  Base.Jobs = 1;

  std::vector<OracleLeg> Legs;
  Legs.push_back({"baseline", Base, /*ExpectIdentical=*/false, false});

  auto Identical = [&](const std::string &Name, AllocatorOptions O,
                       bool Seeded = false) {
    Legs.push_back({Name, std::move(O), /*ExpectIdentical=*/true, Seeded});
  };
  {
    AllocatorOptions O = Base;
    O.Jobs = ParallelJobs;
    Identical("jobs-parallel", O);
  }
  Identical("liveness-seeded", Base, /*Seeded=*/true);
  // Same budget and mode as liveness-seeded, so every body's round 1
  // replays the coalescing that leg recorded.
  Identical("coalesce-replayed", Base, /*Seeded=*/true);

  if (SoundnessSweep) {
    auto Sound = [&](const std::string &Name, AllocatorOptions O) {
      Legs.push_back({Name, Common(std::move(O)), false, false});
    };
    AllocatorOptions FirstUser = Base;
    FirstUser.CalleeModel = CalleeCostModel::FirstUserPays;
    Sound("callee-first-user-pays", FirstUser);
    Sound("allocator-base", baseChaitinOptions());
    Sound("allocator-optimistic", optimisticOptions());
    Sound("allocator-improved-opt", improvedOptimisticOptions());
    Sound("allocator-priority", priorityOptions());
    Sound("allocator-cbh", cbhOptions());
  }
  return Legs;
}

std::vector<std::string> ccra::OracleReport::lines() const {
  std::vector<std::string> Out;
  for (const OracleFailure &F : Failures)
    Out.push_back("[" + F.Leg + "] " + F.Oracle + ": " + F.Detail);
  return Out;
}

OracleReport ccra::runOracleLattice(const Module &M,
                                    const OracleOptions &Opts) {
  OracleReport Report;
  if (Opts.InjectedFault && Opts.InjectedFault(M))
    Report.Failures.push_back(
        {"injected-fault", "injected",
         "test hook reported a planted mismatch for this module"});

  checkComponents(M, Opts, Report);

  ModuleAnalysisCache Cache;
  std::vector<OracleLeg> Legs =
      oracleLattice(Opts.ParallelJobs, Opts.SoundnessSweep);
  LegCapture Baseline;
  for (std::size_t I = 0; I < Legs.size(); ++I) {
    const OracleLeg &Leg = Legs[I];
    std::optional<LegCapture> Cap = runLeg(M, Leg, Opts, Cache, Report);
    // A configuration too small for the module is the input's fault:
    // reported once, by the first leg, with nothing left to compare.
    if (!Cap)
      break;
    if (I == 0)
      Baseline = std::move(*Cap);
    else if (Leg.ExpectIdentical)
      diffAgainstBaseline(Baseline, *Cap, Leg.Name, Report);
  }
  return Report;
}

InterferenceGraph ccra::referenceInterference(const Function &F,
                                              const Liveness &LV,
                                              const LiveRangeSet &LRS) {
  const unsigned NumRanges = LRS.numRanges();
  InterferenceGraph IG(NumRanges);
  auto RangeOf = [&LRS](VirtReg R) {
    return static_cast<unsigned>(LRS.rangeIdOf(R));
  };
  for (const auto &BB : F.blocks()) {
    // Liveness at register granularity; a range is live while any member
    // is, tracked as a live-member count and a per-bank range bitset.
    BitVector Live(F.numVRegs());
    std::vector<unsigned> LiveMembers(NumRanges, 0);
    std::vector<BitVector> BankLive(NumRegBanks, BitVector(NumRanges));
    auto BankOf = [&](unsigned R) -> BitVector & {
      return BankLive[static_cast<unsigned>(LRS.range(R).Bank)];
    };
    auto BecomeLive = [&](VirtReg V) {
      if (Live.test(V.Id))
        return;
      Live.set(V.Id);
      unsigned R = RangeOf(V);
      if (LiveMembers[R]++ == 0)
        BankOf(R).set(R);
    };
    auto BecomeDead = [&](VirtReg V) {
      if (!Live.test(V.Id))
        return;
      Live.reset(V.Id);
      unsigned R = RangeOf(V);
      if (--LiveMembers[R] == 0)
        BankOf(R).reset(R);
    };
    for (unsigned V : LV.liveOut(*BB))
      BecomeLive(VirtReg(V));

    const auto &Insts = BB->instructions();
    for (auto It = Insts.rbegin(); It != Insts.rend(); ++It) {
      const Instruction &I = *It;
      // A def conflicts with everything of its bank live after the
      // instruction, except itself and a copy's source.
      int MoveSrc = I.isMove() ? LRS.rangeIdOf(I.moveSource()) : -1;
      for (VirtReg D : I.Defs) {
        unsigned Def = RangeOf(D);
        for (unsigned Other : BankOf(Def))
          if (Other != Def && static_cast<int>(Other) != MoveSrc)
            IG.addEdge(Def, Other);
      }
      // Multiple results of one instruction conflict with each other.
      for (std::size_t A = 0; A + 1 < I.Defs.size(); ++A)
        for (std::size_t B = A + 1; B < I.Defs.size(); ++B) {
          unsigned RA = RangeOf(I.Defs[A]), RB = RangeOf(I.Defs[B]);
          if (LRS.range(RA).Bank == LRS.range(RB).Bank)
            IG.addEdge(RA, RB);
        }
      for (VirtReg D : I.Defs)
        BecomeDead(D);
      for (VirtReg U : I.Uses)
        BecomeLive(U);
    }
  }
  IG.finalize();
  return IG;
}

SimplifyResult ccra::referenceSimplify(const AllocationContext &Ctx,
                                       bool Optimistic,
                                       const Simplifier::KeyFn &Key) {
  const InterferenceGraph &IG = Ctx.IG;
  const LiveRangeSet &LRS = Ctx.LRS;
  unsigned NumNodes = IG.numNodes();

  SimplifyResult Result;
  Result.PushedOptimistically.assign(NumNodes, false);
  Result.Stack.reserve(NumNodes);

  // Registers refused in earlier rounds are locked and shrink the colors
  // actually available, exactly as in Simplifier::run.
  unsigned LockedPerBank[NumRegBanks] = {0, 0};
  for (PhysReg Reg : Ctx.RefusedCalleeRegs)
    ++LockedPerBank[static_cast<unsigned>(Reg.Bank)];
  std::vector<unsigned> Degree(NumNodes), ColorLimit(NumNodes);
  std::vector<double> CachedKey(NumNodes, 0.0);
  std::vector<bool> Active(NumNodes, true);
  for (unsigned I = 0; I < NumNodes; ++I) {
    Degree[I] = IG.degree(I);
    RegBank Bank = LRS.range(I).Bank;
    unsigned Total = Ctx.MD.numRegs(Bank);
    ColorLimit[I] =
        Total - std::min(LockedPerBank[static_cast<unsigned>(Bank)], Total);
    if (Key)
      CachedKey[I] = Key(LRS.range(I));
  }

  auto Deactivate = [&](unsigned Node) {
    Active[Node] = false;
    for (unsigned Neighbor : IG.neighbors(Node))
      if (Active[Neighbor])
        --Degree[Neighbor];
  };

  unsigned Remaining = NumNodes;
  while (Remaining > 0) {
    // Find the unconstrained node with the smallest key.
    int Best = -1;
    double BestKey = std::numeric_limits<double>::infinity();
    for (unsigned I = 0; I < NumNodes; ++I) {
      if (!Active[I] || Degree[I] >= ColorLimit[I])
        continue;
      double K = CachedKey[I];
      if (Best < 0 || K < BestKey) {
        Best = static_cast<int>(I);
        BestKey = K;
      }
    }
    if (Best >= 0) {
      Result.Stack.push_back(static_cast<unsigned>(Best));
      Deactivate(static_cast<unsigned>(Best));
      --Remaining;
      continue;
    }

    // Blocked: choose a spill candidate minimizing spillCost / degree.
    int Victim = -1;
    double VictimMetric = std::numeric_limits<double>::infinity();
    for (unsigned I = 0; I < NumNodes; ++I) {
      if (!Active[I] || LRS.range(I).NoSpill)
        continue;
      double Metric = LRS.range(I).spillCost() /
                      static_cast<double>(std::max(Degree[I], 1u));
      if (Victim < 0 || Metric < VictimMetric) {
        Victim = static_cast<int>(I);
        VictimMetric = Metric;
      }
    }
    bool EmergencyNoSpill = Victim < 0;
    if (EmergencyNoSpill) {
      // Only unspillable reload temporaries remain. Push the one with the
      // smallest degree and hope color assignment finds room (its steal
      // fallback guarantees progress).
      unsigned BestDegree = ~0u;
      for (unsigned I = 0; I < NumNodes; ++I)
        if (Active[I] && Degree[I] < BestDegree) {
          Victim = static_cast<int>(I);
          BestDegree = Degree[I];
        }
      assert(Victim >= 0 && "no active node while Remaining > 0");
    }

    unsigned V = static_cast<unsigned>(Victim);
    if (Optimistic || EmergencyNoSpill) {
      Result.Stack.push_back(V);
      Result.PushedOptimistically[V] = true;
    } else {
      Result.SpilledNodes.push_back(V);
    }
    Deactivate(V);
    --Remaining;
  }
  return Result;
}

CBHSimplifyResult ccra::referenceCBHSimplify(const AllocationContext &Ctx) {
  const LiveRangeSet &LRS = Ctx.LRS;
  const InterferenceGraph &IG = Ctx.IG;
  const MachineDescription &MD = Ctx.MD;
  unsigned NumNodes = IG.numNodes();

  CBHSimplifyResult Result;
  Result.PushedBlocked.assign(NumNodes, false);
  Result.Stack.reserve(NumNodes);

  std::vector<unsigned> Degree(NumNodes);
  std::vector<bool> Active(NumNodes, true);
  unsigned ActivePerBank[NumRegBanks] = {0, 0};
  unsigned LockedCalleeCount[NumRegBanks];
  for (unsigned B = 0; B < NumRegBanks; ++B)
    LockedCalleeCount[B] = MD.calleeCount(static_cast<RegBank>(B));
  for (unsigned I = 0; I < NumNodes; ++I) {
    const LiveRange &LR = LRS.range(I);
    Degree[I] = IG.degree(I) + MD.calleeCount(LR.Bank) +
                (LR.ContainsCall ? MD.callerCount(LR.Bank) : 0);
    ++ActivePerBank[static_cast<unsigned>(LR.Bank)];
  }

  double CalleeNodeCost = 2.0 * Ctx.EntryFreq;
  auto Deactivate = [&](unsigned Node) {
    Active[Node] = false;
    --ActivePerBank[static_cast<unsigned>(LRS.range(Node).Bank)];
    for (unsigned Neighbor : IG.neighbors(Node))
      if (Active[Neighbor])
        --Degree[Neighbor];
  };
  auto UnlockCallee = [&](RegBank Bank) {
    unsigned BankIdx = static_cast<unsigned>(Bank);
    assert(LockedCalleeCount[BankIdx] > 0 && "no locked register to unlock");
    --LockedCalleeCount[BankIdx];
    ++Result.Unlocked[BankIdx];
    for (unsigned I = 0; I < NumNodes; ++I)
      if (Active[I] && LRS.range(I).Bank == Bank)
        --Degree[I];
  };

  unsigned Remaining = NumNodes;
  while (Remaining > 0) {
    int Best = -1;
    for (unsigned I = 0; I < NumNodes; ++I) {
      if (Active[I] && Degree[I] < MD.numRegs(LRS.range(I).Bank)) {
        Best = static_cast<int>(I);
        break;
      }
    }
    if (Best >= 0) {
      Result.Stack.push_back(static_cast<unsigned>(Best));
      Deactivate(static_cast<unsigned>(Best));
      --Remaining;
      continue;
    }

    int Victim = -1;
    double VictimMetric = std::numeric_limits<double>::infinity();
    for (unsigned I = 0; I < NumNodes; ++I) {
      if (!Active[I] || LRS.range(I).NoSpill)
        continue;
      double Metric = LRS.range(I).spillCost() /
                      static_cast<double>(std::max(Degree[I], 1u));
      if (Victim < 0 || Metric < VictimMetric) {
        Victim = static_cast<int>(I);
        VictimMetric = Metric;
      }
    }
    int CalleeBank = -1;
    double CalleeMetric = std::numeric_limits<double>::infinity();
    for (unsigned B = 0; B < NumRegBanks; ++B) {
      if (LockedCalleeCount[B] == 0 || ActivePerBank[B] == 0)
        continue;
      double Metric =
          CalleeNodeCost / static_cast<double>(std::max(ActivePerBank[B], 1u));
      if (Metric < CalleeMetric) {
        CalleeBank = static_cast<int>(B);
        CalleeMetric = Metric;
      }
    }

    if (CalleeBank >= 0 && (Victim < 0 || CalleeMetric <= VictimMetric)) {
      UnlockCallee(static_cast<RegBank>(CalleeBank));
      continue;
    }
    if (Victim >= 0) {
      Result.SpilledNodes.push_back(static_cast<unsigned>(Victim));
      Deactivate(static_cast<unsigned>(Victim));
      --Remaining;
      continue;
    }
    unsigned BestDegree = ~0u;
    unsigned Pick = 0;
    for (unsigned I = 0; I < NumNodes; ++I)
      if (Active[I] && Degree[I] < BestDegree) {
        Pick = I;
        BestDegree = Degree[I];
      }
    Result.Stack.push_back(Pick);
    Result.PushedBlocked[Pick] = true;
    Deactivate(Pick);
    --Remaining;
  }
  return Result;
}
