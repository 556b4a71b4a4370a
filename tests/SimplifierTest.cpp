//===- tests/SimplifierTest.cpp - Simplification phase unit tests ---------===//

#include "TestUtil.h"
#include "fuzz/Oracle.h"
#include "regalloc/CBHAllocator.h"
#include "regalloc/Simplifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

using namespace ccra;

namespace {

TEST(Simplifier, UnconstrainedGraphFullySimplifies) {
  ScenarioBuilder S(RegisterConfig(3, 0, 0, 0), 100);
  unsigned A = S.addRange(RegBank::Int, 100, 0, false);
  unsigned B = S.addRange(RegBank::Int, 100, 0, false);
  S.addEdge(A, B);
  AllocationContext &Ctx = S.context();
  SimplifyResult R = Simplifier::run(Ctx, /*Optimistic=*/false);
  EXPECT_EQ(R.Stack.size(), 2u);
  EXPECT_TRUE(R.SpilledNodes.empty());
  EXPECT_FALSE(R.PushedOptimistically[A]);
  EXPECT_FALSE(R.PushedOptimistically[B]);
}

TEST(Simplifier, KeyOrdersUnconstrainedRemovals) {
  // Three independent nodes, all unconstrained: removal order follows the
  // key ascending, so the largest key ends up on top of the stack.
  ScenarioBuilder S(RegisterConfig(4, 0, 0, 0), 100);
  unsigned A = S.addRange(RegBank::Int, 100, 0, false);
  unsigned B = S.addRange(RegBank::Int, 100, 0, false);
  unsigned C = S.addRange(RegBank::Int, 100, 0, false);
  AllocationContext &Ctx = S.context();
  std::vector<double> Keys = {2.0, 0.5, 1.0};
  SimplifyResult R = Simplifier::run(
      Ctx, false, [&](const LiveRange &LR) { return Keys[LR.Id]; });
  EXPECT_EQ(R.Stack, (std::vector<unsigned>{B, C, A}));
}

TEST(Simplifier, CliqueBeyondRegistersSpillsCheapest) {
  // 3-clique, 2 registers: exactly one node must be spilled — the one with
  // the smallest spillCost/degree.
  ScenarioBuilder S(RegisterConfig(2, 0, 0, 0), 100);
  unsigned A = S.addRange(RegBank::Int, 900, 0, false);
  unsigned B = S.addRange(RegBank::Int, 100, 0, false); // cheapest
  unsigned C = S.addRange(RegBank::Int, 900, 0, false);
  S.addEdge(A, B);
  S.addEdge(B, C);
  S.addEdge(A, C);
  AllocationContext &Ctx = S.context();
  SimplifyResult R = Simplifier::run(Ctx, false);
  ASSERT_EQ(R.SpilledNodes.size(), 1u);
  EXPECT_EQ(R.SpilledNodes[0], B);
  EXPECT_EQ(R.Stack.size(), 2u);
}

TEST(Simplifier, OptimisticPushesInsteadOfSpilling) {
  ScenarioBuilder S(RegisterConfig(2, 0, 0, 0), 100);
  unsigned A = S.addRange(RegBank::Int, 900, 0, false);
  unsigned B = S.addRange(RegBank::Int, 100, 0, false);
  unsigned C = S.addRange(RegBank::Int, 900, 0, false);
  S.addEdge(A, B);
  S.addEdge(B, C);
  S.addEdge(A, C);
  AllocationContext &Ctx = S.context();
  SimplifyResult R = Simplifier::run(Ctx, /*Optimistic=*/true);
  EXPECT_TRUE(R.SpilledNodes.empty());
  EXPECT_EQ(R.Stack.size(), 3u);
  EXPECT_TRUE(R.PushedOptimistically[B]);
  EXPECT_FALSE(R.PushedOptimistically[A]);
}

TEST(Simplifier, NoSpillNodesAreNeverSpillVictims) {
  ScenarioBuilder S(RegisterConfig(2, 0, 0, 0), 100);
  unsigned A = S.addRange(RegBank::Int, 900, 0, false);
  unsigned B = S.addRange(RegBank::Int, 100, 0, false);
  unsigned C = S.addRange(RegBank::Int, 900, 0, false);
  AllocationContext &Ctx = S.context();
  Ctx.LRS.range(B).NoSpill = true; // cheapest but untouchable
  Ctx.IG.addEdge(A, B);
  Ctx.IG.addEdge(B, C);
  Ctx.IG.addEdge(A, C);
  Ctx.IG.finalize();
  SimplifyResult R = Simplifier::run(Ctx, false);
  for (unsigned Node : R.SpilledNodes)
    EXPECT_NE(Node, B);
}

TEST(Simplifier, BanksHaveIndependentThresholds) {
  // An int node with degree 2 is unconstrained when the int bank has 3
  // registers, even if the float bank has only 1.
  ScenarioBuilder S(RegisterConfig(3, 1, 0, 0), 100);
  unsigned I1 = S.addRange(RegBank::Int, 100, 0, false);
  unsigned I2 = S.addRange(RegBank::Int, 100, 0, false);
  unsigned I3 = S.addRange(RegBank::Int, 100, 0, false);
  unsigned F1 = S.addRange(RegBank::Float, 100, 0, false);
  unsigned F2 = S.addRange(RegBank::Float, 100, 0, false);
  S.addEdge(I1, I2);
  S.addEdge(I2, I3);
  S.addEdge(I1, I3);
  S.addEdge(F1, F2); // float 2-clique with 1 register: one spills
  AllocationContext &Ctx = S.context();
  SimplifyResult R = Simplifier::run(Ctx, false);
  ASSERT_EQ(R.SpilledNodes.size(), 1u);
  EXPECT_TRUE(R.SpilledNodes[0] == F1 || R.SpilledNodes[0] == F2);
}

TEST(Simplifier, RefusedRegistersLowerTheColorLimit) {
  // 2 registers, a 2-clique — normally colorable. With one register
  // refused, the effective limit is 1 and one node must be spilled (if it
  // were pushed as guaranteed, color assignment would fail).
  ScenarioBuilder S(RegisterConfig(0, 0, 2, 0), 100);
  unsigned A = S.addRange(RegBank::Int, 900, 0, false);
  unsigned B = S.addRange(RegBank::Int, 100, 0, false);
  S.addEdge(A, B);
  AllocationContext &Ctx = S.context();
  Ctx.RefusedCalleeRegs.push_back(PhysReg(RegBank::Int, 1));
  SimplifyResult R = Simplifier::run(Ctx, false);
  ASSERT_EQ(R.SpilledNodes.size(), 1u);
  EXPECT_EQ(R.SpilledNodes[0], B);
}

TEST(Simplifier, CascadingRemovalUnlocksNeighbors) {
  // A path A-B-C-D with 2 registers: ends have degree 1 (< 2), and peeling
  // them unlocks the middle — everything simplifies, nothing spills.
  ScenarioBuilder S(RegisterConfig(2, 0, 0, 0), 100);
  unsigned A = S.addRange(RegBank::Int, 100, 0, false);
  unsigned B = S.addRange(RegBank::Int, 100, 0, false);
  unsigned C = S.addRange(RegBank::Int, 100, 0, false);
  unsigned D = S.addRange(RegBank::Int, 100, 0, false);
  S.addEdge(A, B);
  S.addEdge(B, C);
  S.addEdge(C, D);
  AllocationContext &Ctx = S.context();
  SimplifyResult R = Simplifier::run(Ctx, false);
  EXPECT_TRUE(R.SpilledNodes.empty());
  EXPECT_EQ(R.Stack.size(), 4u);
}

// --- Worklist vs reference equivalence ----------------------------------
//
// run() and referenceSimplify() must produce byte-identical results on every
// input: same stack, same spill set, same optimistic flags. The scenarios
// below sweep seeds, both key strategies, optimistic on/off, NoSpill
// flags, and refused-callee locking.

/// Pseudo-random scenario over both banks with mixed costs, NoSpill flags
/// and ~15% edge density; deterministic in \p Seed.
AllocationContext &buildEquivalenceScenario(ScenarioBuilder &S, uint64_t Seed,
                                            unsigned NumNodes) {
  uint64_t X = Seed * 0x9E3779B97F4A7C15ull + 1;
  auto Next = [&X]() {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<unsigned>(X >> 33);
  };
  for (unsigned I = 0; I < NumNodes; ++I) {
    RegBank Bank = Next() % 4 == 0 ? RegBank::Float : RegBank::Int;
    double Refs = 1.0 + Next() % 997;
    double CallerCost = Next() % 311;
    S.addRange(Bank, Refs, CallerCost, /*ContainsCall=*/Next() % 2 == 0);
  }
  for (unsigned A = 0; A < NumNodes; ++A)
    for (unsigned B = A + 1; B < NumNodes; ++B)
      if (Next() % 100 < 15)
        S.addEdge(A, B);
  AllocationContext &Ctx = S.context();
  for (unsigned I = 0; I < NumNodes; ++I)
    if (Next() % 11 == 0)
      Ctx.LRS.range(I).NoSpill = true;
  return Ctx;
}

void expectIdenticalResults(const SimplifyResult &A, const SimplifyResult &B) {
  EXPECT_EQ(A.Stack, B.Stack);
  EXPECT_EQ(A.SpilledNodes, B.SpilledNodes);
  EXPECT_EQ(A.PushedOptimistically, B.PushedOptimistically);
}

// The two §5 key strategies, as pure functions of the live range (what the
// improved allocator feeds the simplifier).
double maxBenefitKey(const LiveRange &LR) {
  return std::max(LR.benefitCaller(), LR.benefitCallee());
}

double deltaBenefitKey(const LiveRange &LR) {
  double Caller = LR.benefitCaller();
  double Callee = LR.benefitCallee();
  if (Caller >= 0.0 && Callee >= 0.0)
    return std::abs(Caller - Callee);
  return std::max(Caller, Callee);
}

TEST(SimplifierEquivalence, WorklistMatchesReferenceAcrossSeedsKeysModes) {
  struct NamedKey {
    const char *Name;
    Simplifier::KeyFn Key;
  };
  const NamedKey Keys[] = {
      {"id-order", nullptr},
      {"max-benefit", maxBenefitKey},
      {"delta", deltaBenefitKey},
  };
  for (uint64_t Seed = 1; Seed <= 6; ++Seed)
    for (bool Optimistic : {false, true})
      for (const NamedKey &NK : Keys) {
        SCOPED_TRACE(testing::Message() << "seed=" << Seed << " optimistic="
                                        << Optimistic << " key=" << NK.Name);
        ScenarioBuilder S(RegisterConfig(3, 1, 2, 1), 100);
        AllocationContext &Ctx = buildEquivalenceScenario(S, Seed, 40);
        expectIdenticalResults(
            Simplifier::run(Ctx, Optimistic, NK.Key),
            referenceSimplify(Ctx, Optimistic, NK.Key));
      }
}

TEST(SimplifierEquivalence, UniformKeysTieBreakToLowestIndex) {
  // Every node identical and unconstrained with an everywhere-equal key:
  // both implementations must fall back to index order — the documented
  // lowest-index tie-break, and the hardest case for a heap to preserve.
  ScenarioBuilder S(RegisterConfig(4, 0, 0, 0), 100);
  for (unsigned I = 0; I < 12; ++I)
    S.addRange(RegBank::Int, 100, 0, false);
  AllocationContext &Ctx = S.context();
  Simplifier::KeyFn Constant = [](const LiveRange &) { return 1.0; };
  SimplifyResult A = Simplifier::run(Ctx, false, Constant);
  expectIdenticalResults(A, referenceSimplify(Ctx, false, Constant));
  std::vector<unsigned> Ascending(12);
  for (unsigned I = 0; I < 12; ++I)
    Ascending[I] = I;
  EXPECT_EQ(A.Stack, Ascending);
}

TEST(SimplifierEquivalence, RefusedCalleeRegistersLockIdentically) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    for (bool Optimistic : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << Seed << " optimistic=" << Optimistic);
      ScenarioBuilder S(RegisterConfig(0, 0, 3, 2), 100);
      AllocationContext &Ctx = buildEquivalenceScenario(S, Seed, 30);
      Ctx.RefusedCalleeRegs = {PhysReg(RegBank::Int, 1),
                               PhysReg(RegBank::Int, 2),
                               PhysReg(RegBank::Float, 0)};
      expectIdenticalResults(Simplifier::run(Ctx, Optimistic, deltaBenefitKey),
                             referenceSimplify(Ctx, Optimistic,
                                                      deltaBenefitKey));
    }
}

TEST(SimplifierEquivalence, EmergencyNoSpillPathMatches) {
  // A 4-clique of unspillable nodes over 2 registers: the victim scan finds
  // nothing and both implementations must take the emergency path.
  ScenarioBuilder S(RegisterConfig(2, 0, 0, 0), 100);
  for (unsigned I = 0; I < 4; ++I)
    S.addRange(RegBank::Int, 100 + I, 0, false);
  for (unsigned A = 0; A < 4; ++A)
    for (unsigned B = A + 1; B < 4; ++B)
      S.addEdge(A, B);
  AllocationContext &Ctx = S.context();
  for (unsigned I = 0; I < 4; ++I)
    Ctx.LRS.range(I).NoSpill = true;
  SimplifyResult A = Simplifier::run(Ctx, false);
  expectIdenticalResults(A, referenceSimplify(Ctx, false));
  EXPECT_TRUE(A.SpilledNodes.empty()); // NoSpill nodes are pushed, not spilled
  EXPECT_EQ(A.Stack.size(), 4u);
}

// --- CBH: worklist vs reference ------------------------------------------
//
// CBHAllocator::simplify and referenceCBHSimplify must agree on every
// input: same stack, spills, blocked pushes and callee-save unlocks. A low
// entry frequency makes the callee-save-register live ranges cheap, so
// those scenarios unlock register after register while nodes wait on the
// heap.

void expectIdenticalCBH(const CBHSimplifyResult &A,
                        const CBHSimplifyResult &B) {
  EXPECT_EQ(A.Stack, B.Stack);
  EXPECT_EQ(A.SpilledNodes, B.SpilledNodes);
  EXPECT_EQ(A.PushedBlocked, B.PushedBlocked);
  for (unsigned Bank = 0; Bank < NumRegBanks; ++Bank)
    EXPECT_EQ(A.Unlocked[Bank], B.Unlocked[Bank]) << "bank " << Bank;
}

TEST(CBHSimplifierEquivalence, WorklistMatchesReferenceAcrossSeedsConfigs) {
  const RegisterConfig Configs[] = {
      RegisterConfig(3, 1, 2, 1), RegisterConfig(2, 2, 6, 4),
      RegisterConfig(0, 0, 8, 8), RegisterConfig(6, 4, 0, 0),
      RegisterConfig(1, 1, 12, 10)};
  // Entry frequencies from unlock-heavy (callee-save ranges far cheaper
  // than any spill) to spill-heavy.
  const double EntryFreqs[] = {0.5, 40.0, 5000.0};
  unsigned Unlocks = 0, Spills = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    for (const RegisterConfig &Config : Configs)
      for (double EntryFreq : EntryFreqs) {
        SCOPED_TRACE(testing::Message() << "seed=" << Seed << " config="
                                        << Config.label()
                                        << " entry=" << EntryFreq);
        ScenarioBuilder S(Config, EntryFreq);
        AllocationContext &Ctx = buildEquivalenceScenario(S, Seed, 48);
        CBHSimplifyResult A = CBHAllocator::simplify(Ctx);
        expectIdenticalCBH(A, referenceCBHSimplify(Ctx));
        Unlocks += A.Unlocked[0] + A.Unlocked[1];
        Spills += static_cast<unsigned>(A.SpilledNodes.size());
      }
  // The sweep reaches both blocked outcomes.
  EXPECT_GT(Unlocks, 100u);
  EXPECT_GT(Spills, 100u);
}

TEST(CBHSimplifierEquivalence, UnlockedNodesPopInIndexOrder) {
  // Six crossing int ranges, no edges, 1 caller-save and 4 callee-save
  // registers: each range's effective degree (4 locked callee + 1 caller)
  // equals the bank's 5 registers, so nothing is eligible until the cheap
  // callee-save-register ranges unlock. One unlock makes all six eligible
  // at once; they must pop in index order, and no second unlock happens.
  ScenarioBuilder S(RegisterConfig(1, 0, 4, 0), 0.5);
  for (unsigned I = 0; I < 6; ++I)
    S.addRange(RegBank::Int, 1000 - I, 0, /*ContainsCall=*/true);
  AllocationContext &Ctx = S.context();
  CBHSimplifyResult A = CBHAllocator::simplify(Ctx);
  expectIdenticalCBH(A, referenceCBHSimplify(Ctx));
  EXPECT_EQ(A.Stack, (std::vector<unsigned>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(A.Unlocked[0], 1u);
  EXPECT_TRUE(A.SpilledNodes.empty());
}

TEST(CBHSimplifierEquivalence, BlockedUnspillableNodesPushIdentically) {
  // A 4-clique of unspillable ranges over 2 caller-save registers and no
  // callee-save ones: nothing to spill or unlock, so both implementations
  // push the smallest-degree node blocked.
  ScenarioBuilder S(RegisterConfig(2, 0, 0, 0), 100);
  for (unsigned I = 0; I < 4; ++I)
    S.addRange(RegBank::Int, 100 + I, 0, false);
  for (unsigned A = 0; A < 4; ++A)
    for (unsigned B = A + 1; B < 4; ++B)
      S.addEdge(A, B);
  AllocationContext &Ctx = S.context();
  for (unsigned I = 0; I < 4; ++I)
    Ctx.LRS.range(I).NoSpill = true;
  CBHSimplifyResult A = CBHAllocator::simplify(Ctx);
  expectIdenticalCBH(A, referenceCBHSimplify(Ctx));
  EXPECT_TRUE(A.SpilledNodes.empty());
  EXPECT_EQ(A.Stack.size(), 4u);
  EXPECT_TRUE(A.PushedBlocked[A.Stack.front()]);
}

} // namespace
