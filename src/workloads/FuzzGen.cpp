//===- workloads/FuzzGen.cpp ----------------------------------------------===//

#include "workloads/FuzzGen.h"

#include "ir/Verifier.h"
#include "support/Rng.h"
#include "workloads/SyntheticBuilder.h"

#include <cassert>

using namespace ccra;

namespace {

/// Per-function generation knobs, derived from the profile + rng.
struct FunctionShape {
  unsigned IntValues;
  unsigned FloatValues;
  unsigned Regions;
  unsigned OpsPerRegion;
  unsigned MaxLoopDepth;
  double CallProbability;
  double ColdBranchProbability;
  double ConversionProbability; ///< chance a region mixes banks explicitly
  double MoveProbability;       ///< coalescable-copy fodder
  bool UseStaggered;            ///< staggered overlapping chains
  bool UseCirculant;            ///< circulant webs around back edges
};

FunctionShape shapeFor(FuzzProfile Profile, Rng &R, unsigned Scale) {
  FunctionShape S;
  // The Mixed profile picks one concrete shape per function.
  if (Profile == FuzzProfile::Mixed) {
    static const FuzzProfile Concrete[] = {
        FuzzProfile::CallDense, FuzzProfile::BankMix, FuzzProfile::HighDegree,
        FuzzProfile::PathologicalLive, FuzzProfile::Tiny};
    Profile = Concrete[R.nextBelow(5)];
  }
  switch (Profile) {
  case FuzzProfile::CallDense:
    S = {/*IntValues=*/6 + unsigned(R.nextBelow(5)),
         /*FloatValues=*/2 + unsigned(R.nextBelow(3)),
         /*Regions=*/5 * Scale,
         /*OpsPerRegion=*/4,
         /*MaxLoopDepth=*/2,
         /*CallProbability=*/0.9,
         /*ColdBranchProbability=*/0.2,
         /*ConversionProbability=*/0.1,
         /*MoveProbability=*/0.3,
         /*UseStaggered=*/false,
         /*UseCirculant=*/false};
    break;
  case FuzzProfile::BankMix:
    S = {/*IntValues=*/5 + unsigned(R.nextBelow(4)),
         /*FloatValues=*/5 + unsigned(R.nextBelow(4)),
         /*Regions=*/5 * Scale,
         /*OpsPerRegion=*/6,
         /*MaxLoopDepth=*/2,
         /*CallProbability=*/0.3,
         /*ColdBranchProbability=*/0.2,
         /*ConversionProbability=*/0.8,
         /*MoveProbability=*/0.4,
         /*UseStaggered=*/false,
         /*UseCirculant=*/false};
    break;
  case FuzzProfile::HighDegree:
    S = {/*IntValues=*/14 + unsigned(R.nextBelow(10)) * Scale,
         /*FloatValues=*/6 + unsigned(R.nextBelow(5)),
         /*Regions=*/4 * Scale,
         /*OpsPerRegion=*/10,
         /*MaxLoopDepth=*/1,
         /*CallProbability=*/0.2,
         /*ColdBranchProbability=*/0.1,
         /*ConversionProbability=*/0.2,
         /*MoveProbability=*/0.2,
         /*UseStaggered=*/true,
         /*UseCirculant=*/false};
    break;
  case FuzzProfile::PathologicalLive:
    S = {/*IntValues=*/4 + unsigned(R.nextBelow(4)),
         /*FloatValues=*/2 + unsigned(R.nextBelow(3)),
         /*Regions=*/3 * Scale,
         /*OpsPerRegion=*/4,
         /*MaxLoopDepth=*/3,
         /*CallProbability=*/0.4,
         /*ColdBranchProbability=*/0.5,
         /*ConversionProbability=*/0.2,
         /*MoveProbability=*/0.3,
         /*UseStaggered=*/true,
         /*UseCirculant=*/true};
    break;
  case FuzzProfile::Tiny:
    S = {/*IntValues=*/1 + unsigned(R.nextBelow(3)),
         /*FloatValues=*/unsigned(R.nextBelow(2)),
         /*Regions=*/1 + unsigned(R.nextBelow(2)),
         /*OpsPerRegion=*/1 + unsigned(R.nextBelow(3)),
         /*MaxLoopDepth=*/1,
         /*CallProbability=*/0.5,
         /*ColdBranchProbability=*/0.3,
         /*ConversionProbability=*/0.3,
         /*MoveProbability=*/0.5,
         /*UseStaggered=*/false,
         /*UseCirculant=*/false};
    break;
  case FuzzProfile::Mixed:
    assert(false && "resolved above");
    break;
  }
  return S;
}

void emitRegion(SyntheticFunctionBuilder &B, Rng &R, const FunctionShape &S,
                std::vector<VirtReg> &IntPool, std::vector<VirtReg> &FloatPool,
                const std::vector<Function *> &Callees, unsigned Depth) {
  enum { Straight, LoopRegion, BranchRegion, WebRegion };
  unsigned Kind = static_cast<unsigned>(R.nextBelow(S.UseCirculant ? 4 : 3));
  if ((Kind == LoopRegion || Kind == WebRegion) && Depth >= S.MaxLoopDepth)
    Kind = Straight;

  auto EmitWork = [&]() {
    if (!IntPool.empty())
      B.touch(IntPool, S.OpsPerRegion);
    if (!FloatPool.empty() && R.nextBool(0.7))
      B.touch(FloatPool, S.OpsPerRegion / 2 + 1);
    if (R.nextBool(S.ConversionProbability) && !IntPool.empty() &&
        !FloatPool.empty()) {
      // Explicit cross-bank traffic: convert a value each way so both banks
      // interleave their pressure at the same program point.
      IRBuilder &IRB = B.irb();
      VirtReg F = IRB.buildCvtIntToFloat(R.pick(IntPool));
      VirtReg I = IRB.buildCvtFloatToInt(R.pick(FloatPool));
      IRB.buildBinaryInto(R.pick(FloatPool), Opcode::FAdd, R.pick(FloatPool),
                          F);
      IRB.buildBinaryInto(R.pick(IntPool), Opcode::Add, R.pick(IntPool), I);
    }
    if (R.nextBool(0.4))
      B.localWork(R.nextBool() ? RegBank::Int : RegBank::Float, 1,
                  1 + static_cast<unsigned>(R.nextBelow(4)));
    if (S.UseStaggered && R.nextBool(0.5))
      B.staggeredChain(R.nextBool(0.75) ? RegBank::Int : RegBank::Float,
                       4 + static_cast<unsigned>(R.nextBelow(10)),
                       2 + static_cast<unsigned>(R.nextBelow(4)));
    if (!IntPool.empty() && R.nextBool(S.MoveProbability))
      B.shufflePoolValue(IntPool);
    if (!FloatPool.empty() && R.nextBool(S.MoveProbability / 2))
      B.shufflePoolValue(FloatPool);
    if (!Callees.empty()) {
      // Call-dense regions emit short call *bursts*, with pool values
      // deliberately touched between the calls so they are live across
      // every one of them.
      unsigned Calls = 0;
      while (Calls < 3 && R.nextBool(S.CallProbability)) {
        B.call(R.pick(Callees));
        if (!IntPool.empty() && R.nextBool(0.6))
          B.touch(IntPool, 1);
        ++Calls;
      }
    }
  };

  switch (Kind) {
  case Straight:
    EmitWork();
    break;
  case LoopRegion: {
    LoopHandles L = B.beginLoop(2 + static_cast<double>(R.nextBelow(60)));
    EmitWork();
    if (R.nextBool(0.5))
      emitRegion(B, R, S, IntPool, FloatPool, Callees, Depth + 1);
    B.endLoop(L);
    break;
  }
  case BranchRegion: {
    double Prob = R.nextBool(S.ColdBranchProbability)
                      ? 0.005 + R.nextDouble() * 0.05
                      : 0.3 + R.nextDouble() * 0.4;
    BranchHandles Br = B.beginBranch(Prob);
    EmitWork();
    B.elseBranch(Br);
    if (R.nextBool(0.6))
      EmitWork();
    B.endBranch(Br);
    break;
  }
  case WebRegion: {
    // The §8 separator: high degree, low clique number, wrapped around a
    // back edge, with calls inside the body when the profile has callees.
    unsigned Count = 5 + static_cast<unsigned>(R.nextBelow(8));
    unsigned Overlap = 2 + static_cast<unsigned>(R.nextBelow(Count - 2));
    std::vector<Function *> WebCallees;
    if (!Callees.empty() && R.nextBool(0.6))
      WebCallees.push_back(R.pick(Callees));
    B.circulantWeb(R.nextBool(0.8) ? RegBank::Int : RegBank::Float, Count,
                   Overlap, 2 + static_cast<double>(R.nextBelow(40)),
                   WebCallees);
    break;
  }
  default:
    break;
  }
}

void buildFunction(Function &F, Rng &R, const FuzzGenParams &P,
                   const std::vector<Function *> &Callees) {
  Rng Local = R.fork();
  FunctionShape S = shapeFor(P.Profile, Local, P.SizeScale);
  SyntheticFunctionBuilder B(F, Local.next());
  std::vector<VirtReg> IntPool = B.makeValues(RegBank::Int, S.IntValues);
  std::vector<VirtReg> FloatPool = B.makeValues(RegBank::Float, S.FloatValues);
  for (unsigned I = 0; I < S.Regions; ++I)
    emitRegion(B, Local, S, IntPool, FloatPool, Callees, 0);
  // Pin pool lifetimes to the end of the function, so everything emitted
  // above really was in the middle of the ranges.
  if (!IntPool.empty())
    B.useEach(IntPool);
  if (!FloatPool.empty())
    B.useEach(FloatPool);
  B.finish();
}

} // namespace

const std::vector<FuzzProfile> &ccra::allFuzzProfiles() {
  static const std::vector<FuzzProfile> All = {
      FuzzProfile::Mixed,          FuzzProfile::CallDense,
      FuzzProfile::BankMix,        FuzzProfile::HighDegree,
      FuzzProfile::PathologicalLive, FuzzProfile::Tiny};
  return All;
}

const char *ccra::fuzzProfileName(FuzzProfile P) {
  switch (P) {
  case FuzzProfile::Mixed:
    return "mixed";
  case FuzzProfile::CallDense:
    return "call-dense";
  case FuzzProfile::BankMix:
    return "bank-mix";
  case FuzzProfile::HighDegree:
    return "high-degree";
  case FuzzProfile::PathologicalLive:
    return "pathological-live";
  case FuzzProfile::Tiny:
    return "tiny";
  }
  return "unknown";
}

bool ccra::parseFuzzProfile(const std::string &Name, FuzzProfile &P) {
  for (FuzzProfile Candidate : allFuzzProfiles())
    if (Name == fuzzProfileName(Candidate)) {
      P = Candidate;
      return true;
    }
  return false;
}

std::unique_ptr<Module>
ccra::generateFuzzModule(const FuzzGenParams &Params) {
  Rng R(Params.Seed * 0x9e3779b97f4a7c15ULL + 0xfc0de +
        static_cast<uint64_t>(Params.Profile));
  auto M = std::make_unique<Module>(
      std::string("fuzz-") + fuzzProfileName(Params.Profile) + "-" +
      std::to_string(Params.Seed));

  unsigned NumFunctions =
      Params.Profile == FuzzProfile::Tiny
          ? 1 + static_cast<unsigned>(R.nextBelow(2))
          : 2 + static_cast<unsigned>(R.nextBelow(3)) * Params.SizeScale;
  // Leaf-first construction keeps the call graph a DAG (the interprocedural
  // frequency analysis relies on this, same as RandomProgram).
  std::vector<Function *> Built;
  for (unsigned I = 0; I < NumFunctions; ++I) {
    std::string Name = "f";
    Name += std::to_string(I);
    Function *F = M->createFunction(Name);
    buildFunction(*F, R, Params, Built);
    Built.push_back(F);
  }
  // An occasional external declaration: calls to it still carry call cost,
  // exercising the "no body to analyze" paths of the cost model.
  if (Params.Profile != FuzzProfile::Tiny && R.nextBool(0.3))
    Built.push_back(M->createFunction("ext"));
  Function *MainF = M->createFunction("main");
  buildFunction(*MainF, R, Params, Built);
  M->setEntryFunction(MainF);

  assert(verifyModule(*M, nullptr) && "fuzz module failed IR verification");
  return M;
}

RegisterConfig ccra::fuzzRegisterConfig(Rng &R) {
  // Small files dominate (they force spilling decisions); the corners —
  // zero callee-save, lopsided banks — show up regularly.
  unsigned Ri = 3 + static_cast<unsigned>(R.nextBelow(8));
  unsigned Rf = 2 + static_cast<unsigned>(R.nextBelow(7));
  unsigned Ei = static_cast<unsigned>(R.nextBelow(5));
  unsigned Ef = static_cast<unsigned>(R.nextBelow(4));
  if (R.nextBool(0.15)) { // no callee-save at all (the sweep's minimal point)
    Ei = 0;
    Ef = 0;
  }
  if (R.nextBool(0.1)) // a roomy file: exercises the no-pressure paths
    return RegisterConfig(Ri + 12, Rf + 10, Ei + 6, Ef + 5);
  return RegisterConfig(Ri, Rf, Ei, Ef);
}
