//===- analysis/Frequency.cpp ---------------------------------------------===//

#include "analysis/Frequency.h"

#include "analysis/CfgTraversal.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"

#include <cassert>
#include <cmath>

using namespace ccra;

const char *ccra::frequencyModeName(FrequencyMode Mode) {
  return Mode == FrequencyMode::Static ? "static" : "dynamic";
}

namespace {

/// Probability the static estimator assigns to a loop back edge ("loops
/// iterate about ten times").
constexpr double StaticBackEdgeProbability = 0.9;

/// Returns the per-edge probabilities of \p BB under \p Mode.
std::vector<double> edgeProbabilities(const BasicBlock &BB,
                                      const LoopInfo &LI,
                                      FrequencyMode Mode) {
  const auto &Succs = BB.successors();
  std::vector<double> Probs(Succs.size(), 0.0);
  if (Succs.empty())
    return Probs;

  if (Mode == FrequencyMode::Profile) {
    for (size_t I = 0; I < Succs.size(); ++I)
      Probs[I] = Succs[I].Probability;
    return Probs;
  }

  // Static heuristic. Single successor: always taken. Two-way branch: a
  // back edge gets 0.9, the exit 0.1; otherwise 50/50.
  if (Succs.size() == 1) {
    Probs[0] = 1.0;
    return Probs;
  }
  bool HasBackEdge = false;
  for (const CfgEdge &E : Succs)
    HasBackEdge |= LI.isBackEdge(&BB, E.Succ);
  for (size_t I = 0; I < Succs.size(); ++I) {
    if (HasBackEdge)
      Probs[I] = LI.isBackEdge(&BB, Succs[I].Succ)
                     ? StaticBackEdgeProbability
                     : (1.0 - StaticBackEdgeProbability);
    else
      Probs[I] = 1.0 / static_cast<double>(Succs.size());
  }
  // Multiple back edges from one block: renormalize.
  double Total = 0.0;
  for (double P : Probs)
    Total += P;
  for (double &P : Probs)
    P /= Total;
  return Probs;
}

} // namespace

std::vector<double>
ccra::computeRelativeBlockFrequencies(const Function &F, FrequencyMode Mode) {
  std::vector<double> Freq(F.numBlocks(), 0.0);
  if (F.isDeclaration())
    return Freq;

  DominatorTree DT = DominatorTree::compute(F);
  LoopInfo LI = LoopInfo::compute(F, DT);
  std::vector<BasicBlock *> Rpo = computeReversePostOrder(F);

  // Pre-compute edge probabilities once.
  std::vector<std::vector<double>> Probs(F.numBlocks());
  for (BasicBlock *BB : Rpo)
    Probs[BB->getId()] = edgeProbabilities(*BB, LI, Mode);

  // The frequencies satisfy the linear system
  //   freq(b) = [b == entry] + sum over preds p of freq(p) * prob(p -> b),
  // i.e. (I - P^T) f = e_entry. Deeply nested loops make fixpoint
  // iteration impractically slow (the iteration matrix's spectral radius
  // approaches 1), so solve exactly with Gaussian elimination over the
  // reachable blocks — functions are at most a few hundred blocks.
  const BasicBlock *Entry = F.getEntryBlock();
  const size_t N = Rpo.size();
  std::vector<int> RowOf(F.numBlocks(), -1);
  for (size_t I = 0; I < N; ++I)
    RowOf[Rpo[I]->getId()] = static_cast<int>(I);

  // A[r][c]: coefficient of freq(block c) in block r's equation.
  std::vector<std::vector<double>> A(N, std::vector<double>(N, 0.0));
  std::vector<double> Rhs(N, 0.0);
  for (size_t R = 0; R < N; ++R) {
    BasicBlock *BB = Rpo[R];
    A[R][R] = 1.0;
    if (BB == Entry)
      Rhs[R] = 1.0;
    const auto &BlockProbs = Probs[BB->getId()];
    const auto &Succs = BB->successors();
    for (size_t I = 0; I < Succs.size(); ++I) {
      int C = RowOf[Succs[I].Succ->getId()];
      assert(C >= 0 && "successor of reachable block is reachable");
      A[C][R] -= BlockProbs[I];
    }
  }

  // Gaussian elimination with partial pivoting.
  std::vector<size_t> Perm(N);
  for (size_t I = 0; I < N; ++I)
    Perm[I] = I;
  for (size_t Col = 0; Col < N; ++Col) {
    size_t Pivot = Col;
    for (size_t R = Col + 1; R < N; ++R)
      if (std::abs(A[Perm[R]][Col]) > std::abs(A[Perm[Pivot]][Col]))
        Pivot = R;
    std::swap(Perm[Col], Perm[Pivot]);
    double Diag = A[Perm[Col]][Col];
    assert(std::abs(Diag) > 1e-300 && "singular frequency system");
    for (size_t R = Col + 1; R < N; ++R) {
      double Factor = A[Perm[R]][Col] / Diag;
      if (Factor == 0.0)
        continue;
      for (size_t C = Col; C < N; ++C)
        A[Perm[R]][C] -= Factor * A[Perm[Col]][C];
      Rhs[Perm[R]] -= Factor * Rhs[Perm[Col]];
    }
  }
  std::vector<double> Solution(N, 0.0);
  for (size_t Col = N; Col-- > 0;) {
    double Value = Rhs[Perm[Col]];
    for (size_t C = Col + 1; C < N; ++C)
      Value -= A[Perm[Col]][C] * Solution[C];
    Solution[Col] = Value / A[Perm[Col]][Col];
  }
  for (size_t I = 0; I < N; ++I)
    Freq[Rpo[I]->getId()] = std::max(Solution[I], 0.0);
  return Freq;
}

FrequencyInfo FrequencyInfo::compute(const Module &M, FrequencyMode Mode,
                                     double EntryInvocations) {
  FrequencyInfo Info;
  Info.Mode = Mode;

  for (const auto &F : M.functions()) {
    FunctionFrequencies FF;
    FF.RelativeBlockFreq = computeRelativeBlockFrequencies(*F, Mode);
    Info.PerFunction[F.get()] = std::move(FF);
  }

  // Interprocedural invocation counts: iterate the call-graph equations
  //   inv(G) = [G == entry] * EntryInvocations
  //          + sum over call sites c in F targeting G of
  //              relFreq(block(c)) * inv(F).
  // The workloads' call graphs are DAGs, so this converges in at most
  // #functions passes; the cap guards against accidental recursion.
  //
  // Complexity: O(instructions + passes × call sites). One walk lists each
  // callee's call sites as (caller, relative block frequency) in function
  // → block → instruction order, and each pass sums its callee's list. A
  // pass thus makes the same additions, in the same order, as a scan of
  // the whole module per callee would, reading each caller's current
  // EntryFreq, so the results are the same doubles at a fraction of the
  // O(passes × functions × instructions) cost. Calls to functions outside
  // M are never counted.
  struct IndexedCallSite {
    const FunctionFrequencies *Caller;
    double RelativeFreq;
  };
  std::unordered_map<const Function *, std::vector<IndexedCallSite>> SitesOf;
  for (const auto &G : M.functions())
    SitesOf.try_emplace(G.get());
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    const FunctionFrequencies &FF = Info.PerFunction[F.get()];
    for (const auto &BB : F->blocks())
      for (const Instruction &I : BB->instructions()) {
        if (!I.isCall())
          continue;
        auto It = SitesOf.find(I.Callee);
        if (It != SitesOf.end())
          It->second.push_back({&FF, FF.RelativeBlockFreq[BB->getId()]});
      }
  }

  const Function *Entry = M.getEntryFunction();
  const int MaxPasses = static_cast<int>(M.functions().size()) + 8;
  for (int Pass = 0; Pass < MaxPasses; ++Pass) {
    bool Changed = false;
    for (const auto &G : M.functions()) {
      double NewInv = (G.get() == Entry) ? EntryInvocations : 0.0;
      for (const IndexedCallSite &CS : SitesOf[G.get()])
        NewInv += CS.RelativeFreq * CS.Caller->EntryFreq;
      FunctionFrequencies &GF = Info.PerFunction[G.get()];
      if (std::abs(NewInv - GF.EntryFreq) >
          1e-9 * std::max(1.0, std::abs(NewInv))) {
        GF.EntryFreq = NewInv;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
  return Info;
}

FrequencyInfo FrequencyInfo::remappedTo(const Module &Source,
                                        const Module &Target) const {
  assert(Source.functions().size() == Target.functions().size() &&
         "target is not a clone of source");
  FrequencyInfo Info;
  Info.Mode = Mode;
  for (size_t I = 0; I < Source.functions().size(); ++I) {
    auto It = PerFunction.find(Source.functions()[I].get());
    assert(It != PerFunction.end() && "source function missing frequencies");
    Info.PerFunction[Target.functions()[I].get()] = It->second;
  }
  return Info;
}

double FrequencyInfo::blockFrequency(const BasicBlock &BB) const {
  auto It = PerFunction.find(BB.getParent());
  assert(It != PerFunction.end() && "unknown function");
  const FunctionFrequencies &FF = It->second;
  assert(BB.getId() < FF.RelativeBlockFreq.size() && "unknown block");
  return FF.RelativeBlockFreq[BB.getId()] * FF.EntryFreq;
}

double FrequencyInfo::entryFrequency(const Function &F) const {
  auto It = PerFunction.find(&F);
  assert(It != PerFunction.end() && "unknown function");
  return It->second.EntryFreq;
}
