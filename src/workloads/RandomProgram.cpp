//===- workloads/RandomProgram.cpp ----------------------------------------===//

#include "workloads/RandomProgram.h"

#include "ir/Verifier.h"
#include "support/Rng.h"
#include "workloads/SyntheticBuilder.h"

#include <cassert>
#include <string>
#include <vector>

using namespace ccra;

namespace {

/// Emits one random region into \p B.
void emitRegion(SyntheticFunctionBuilder &B, Rng &R,
                const RandomProgramParams &P,
                std::vector<VirtReg> &IntPool, std::vector<VirtReg> &FloatPool,
                const std::vector<Function *> &Callees, unsigned Depth) {
  enum { Straight, LoopRegion, BranchRegion };
  unsigned Kind = static_cast<unsigned>(R.nextBelow(3));
  if (Kind == LoopRegion && Depth >= P.MaxLoopDepth)
    Kind = Straight;

  auto EmitWork = [&]() {
    if (!IntPool.empty())
      B.touch(IntPool, P.OpsPerRegion);
    if (!FloatPool.empty() && R.nextBool(0.7))
      B.touch(FloatPool, P.OpsPerRegion / 2 + 1);
    if (R.nextBool(0.4))
      B.localWork(R.nextBool() ? RegBank::Int : RegBank::Float, 1,
                  1 + static_cast<unsigned>(R.nextBelow(4)));
    if (P.UseMoves && !IntPool.empty() && R.nextBool(0.3))
      B.shufflePoolValue(IntPool);
    if (!Callees.empty() && R.nextBool(P.CallProbability))
      B.call(R.pick(Callees));
  };

  switch (Kind) {
  case Straight:
    EmitWork();
    break;
  case LoopRegion: {
    LoopHandles L = B.beginLoop(2 + static_cast<double>(R.nextBelow(40)));
    EmitWork();
    if (R.nextBool(0.5))
      emitRegion(B, R, P, IntPool, FloatPool, Callees, Depth + 1);
    B.endLoop(L);
    break;
  }
  case BranchRegion: {
    double Prob = R.nextBool(P.ColdBranchProbability)
                      ? 0.01 + R.nextDouble() * 0.05
                      : 0.3 + R.nextDouble() * 0.4;
    BranchHandles Br = B.beginBranch(Prob);
    EmitWork();
    B.elseBranch(Br);
    if (R.nextBool(0.6))
      EmitWork();
    B.endBranch(Br);
    break;
  }
  default:
    break;
  }
}

void buildRandomFunction(Function &F, Rng &R, const RandomProgramParams &P,
                         const std::vector<Function *> &Callees) {
  SyntheticFunctionBuilder B(F, R.next());
  std::vector<VirtReg> IntPool = B.makeValues(RegBank::Int, P.IntValues);
  std::vector<VirtReg> FloatPool =
      B.makeValues(RegBank::Float, P.FloatValues);
  for (unsigned I = 0; I < P.RegionsPerFunction; ++I)
    emitRegion(B, R, P, IntPool, FloatPool, Callees, 0);
  if (!IntPool.empty())
    B.touch(IntPool, 2);
  if (!FloatPool.empty())
    B.touch(FloatPool, 2);
  B.finish();
}

} // namespace

std::unique_ptr<Module>
ccra::generateRandomProgram(const RandomProgramParams &Params) {
  Rng R(Params.Seed);
  auto M = std::make_unique<Module>("random-" + std::to_string(Params.Seed));

  // Functions are created leaf-first so every call edge points "down" and
  // the call graph is a DAG (the frequency analysis relies on this).
  std::vector<Function *> Built;
  for (unsigned I = 0; I < Params.NumFunctions; ++I) {
    std::string Name = "f";
    Name += std::to_string(I);
    Function *F = M->createFunction(Name);
    buildRandomFunction(*F, R, Params, Built);
    Built.push_back(F);
  }
  Function *MainF = M->createFunction("main");
  buildRandomFunction(*MainF, R, Params, Built);
  M->setEntryFunction(MainF);

  assert(verifyModule(*M, nullptr) && "random module failed verification");
  return M;
}
