//===- workloads/SpecProxies.cpp ------------------------------------------===//
//
// Each builder documents how the proxy's structure maps to the program
// characteristics the paper reports for the original SPEC92 benchmark. The
// magnitudes (invocation counts, reference densities, branch probabilities)
// are chosen so the *shape* of each reproduced figure matches: where spill
// cost dominates, where call cost takes over, and which enhancement matters.
//
//===----------------------------------------------------------------------===//

#include "workloads/SpecProxies.h"

#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "workloads/SyntheticBuilder.h"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace ccra;

namespace {

/// Builds a main() that invokes \p Hot once per innermost iteration of a
/// loop nest with the given per-level trip counts (profile truth). Keeps
/// a small pool live across the hot call: with callee-save registers
/// available both base and improved allocators handle main identically, so
/// main contributes the same small overhead to every allocator.
void buildDriverMain(Module &M, Function *Hot,
                     const std::vector<double> &Trips, uint64_t Seed) {
  Function *MainF = M.createFunction("main");
  SyntheticFunctionBuilder B(*MainF, Seed);
  std::vector<VirtReg> Pool = B.makeValues(RegBank::Int, 4);
  std::vector<LoopHandles> Loops;
  for (double Trip : Trips)
    Loops.push_back(B.beginLoop(Trip));
  B.touch(Pool, 4);
  B.call(Hot);
  B.touch(Pool, 2);
  for (auto It = Loops.rbegin(); It != Loops.rend(); ++It)
    B.endLoop(*It);
  B.touch(Pool, 2);
  B.finish();
  M.setEntryFunction(MainF);
}

/// A small leaf function: register traffic but no calls, so all of its
/// live ranges are happy in caller-save registers under every allocator.
Function *buildLeaf(Module &M, const std::string &Name, RegBank Bank,
                    unsigned PoolSize, unsigned Ops, uint64_t Seed) {
  Function *F = M.createFunction(Name);
  SyntheticFunctionBuilder B(*F, Seed);
  std::vector<VirtReg> Pool = B.makeValues(Bank, PoolSize);
  LoopHandles Loop = B.beginLoop(8);
  B.touch(Pool, Ops);
  B.localWork(Bank, 2, 3);
  B.endLoop(Loop);
  B.shufflePoolValue(Pool);
  B.touch(Pool, 2);
  B.finish();
  return F;
}

/// The eqntott/ear pattern (§3.2, Figures 2/6/7): a frequently invoked
/// function whose long-lived values are hot (dense references inside a
/// loop) but cross a call that sits on a rarely executed path after the
/// loop. The base model prefers callee-save registers for them (they
/// "contain a call"), paying 2 x entryFreq per register; storage-class
/// analysis sees benefitCaller >> benefitCallee and pays only the cold
/// call's tiny caller-save cost.
Function *buildHotFunctionWithColdCall(Module &M, const std::string &Name,
                                       Function *ColdCallee, RegBank Bank,
                                       unsigned PoolSize, double InnerTrip,
                                       unsigned OpsPerIter, double ColdProb,
                                       uint64_t Seed) {
  Function *F = M.createFunction(Name);
  SyntheticFunctionBuilder B(*F, Seed);
  std::vector<VirtReg> Pool = B.makeValues(Bank, PoolSize);

  LoopHandles Hot = B.beginLoop(InnerTrip);
  B.touch(Pool, OpsPerIter);
  B.localWork(Bank, 1, 3);
  B.endLoop(Hot);
  // Straight-line copies (the source dies at the move): the coalescing
  // phase merges them away.
  B.shufflePoolValue(Pool);
  B.shufflePoolValue(Pool);

  // The cold tail: a rarely taken path containing the call. The pool is
  // used again after the join, so every pool value is live across it.
  BranchHandles Cold = B.beginBranch(ColdProb);
  B.call(ColdCallee);
  B.elseBranch(Cold);
  B.localWork(Bank, 1, 2);
  B.endBranch(Cold);

  B.useEach(Pool);
  B.finish();
  return F;
}

/// The li/sc pattern (§4, Figure 6's "only storage-class analysis helps"
/// class): values with few references that are live across *hot* calls.
/// Caller-save residence costs more than their spill code; callee-save
/// residence costs more too (the function itself is hot). The right answer
/// is memory, which only storage-class analysis can choose.
void emitSpillBait(SyntheticFunctionBuilder &B, RegBank Bank, unsigned Count,
                   const std::vector<Function *> &HotCallees,
                   double ReuseProb, std::vector<VirtReg> &BaitOut) {
  BaitOut = B.makeValues(Bank, Count);
  for (Function *Callee : HotCallees)
    B.call(Callee);
  // One cheap reuse on a moderately likely path keeps the bait live across
  // the calls while keeping its reference count low.
  BranchHandles Reuse = B.beginBranch(ReuseProb);
  B.useEach(BaitOut);
  B.elseBranch(Reuse); // nothing on the else path
  B.endBranch(Reuse);
}

// ---------------------------------------------------------------------------
// The fourteen proxies.
// ---------------------------------------------------------------------------

std::unique_ptr<Module> buildEqntott() {
  auto M = std::make_unique<Module>("eqntott");
  // bit-vector comparison: cmppt is the famous hot function; its long-lived
  // values cross only a cold error/IO path.
  Function *BitCount = buildLeaf(*M, "bit_count", RegBank::Int, 5, 8, 11);
  Function *Cmppt = buildHotFunctionWithColdCall(
      *M, "cmppt", BitCount, RegBank::Int, /*PoolSize=*/10, /*InnerTrip=*/20,
      /*OpsPerIter=*/12, /*ColdProb=*/0.01, 12);
  buildDriverMain(*M, Cmppt, {100, 100, 100}, 13);
  return M;
}

std::unique_ptr<Module> buildEar() {
  auto M = std::make_unique<Module>("ear");
  // Cochlea model: floating-point FIR filters invoked per sample; results
  // cross a cold output call.
  Function *Output = buildLeaf(*M, "write_sample", RegBank::Int, 4, 6, 21);
  Function *Fir = buildHotFunctionWithColdCall(
      *M, "fir_filter", Output, RegBank::Float, /*PoolSize=*/8,
      /*InnerTrip=*/25, /*OpsPerIter=*/10, /*ColdProb=*/0.02, 22);
  buildDriverMain(*M, Fir, {100, 100, 100}, 23);
  return M;
}

std::unique_ptr<Module> buildLi() {
  auto M = std::make_unique<Module>("li");
  // Lisp interpreter: eval's environment bookkeeping values have few
  // references but are live across the hot apply/cons calls on the main
  // dispatch path.
  Function *Apply = buildLeaf(*M, "xlapply", RegBank::Int, 6, 10, 31);
  Function *Cons = buildLeaf(*M, "cons", RegBank::Int, 4, 6, 32);

  Function *Eval = M->createFunction("xleval");
  {
    SyntheticFunctionBuilder B(*Eval, 33);
    // A few genuinely hot values (the form under evaluation).
    std::vector<VirtReg> HotPool = B.makeValues(RegBank::Int, 4);
    LoopHandles L = B.beginLoop(30);
    B.touch(HotPool, 6);
    B.endLoop(L);
    // The Figure 8 structure (§8): a software-pipelined web whose values
    // cross the hot apply/cons calls. Pessimistic coloring spills them
    // (correctly — their spill code is cheaper than save/restores around
    // the hot calls); optimistic coloring rescues them into caller-save
    // registers and loses.
    B.circulantWeb(RegBank::Int, 12, 5, 1,
                   {Apply, Cons, Apply, Cons, Apply, Cons});
    // The bait: low-reference values crossing two hot calls.
    std::vector<VirtReg> Bait;
    emitSpillBait(B, RegBank::Int, 10, {Apply, Cons}, 0.2, Bait);
    B.touch(HotPool, 3);
    B.finish();
  }
  buildDriverMain(*M, Eval, {100, 100, 10}, 34);
  return M;
}

std::unique_ptr<Module> buildSc() {
  auto M = std::make_unique<Module>("sc");
  // Spreadsheet: cell re-evaluation calls the formula interpreter on the
  // hot path while carrying rarely reused bookkeeping values.
  Function *EvalCell = buildLeaf(*M, "eval_cell", RegBank::Int, 6, 9, 41);
  Function *Update = buildLeaf(*M, "update_deps", RegBank::Int, 5, 7, 42);

  Function *Recalc = M->createFunction("recalc");
  {
    SyntheticFunctionBuilder B(*Recalc, 43);
    std::vector<VirtReg> HotPool = B.makeValues(RegBank::Int, 5);
    LoopHandles L = B.beginLoop(40);
    B.touch(HotPool, 7);
    B.endLoop(L);
    B.circulantWeb(RegBank::Int, 12, 5, 1,
                   {EvalCell, Update, EvalCell, Update, EvalCell, Update});
    std::vector<VirtReg> Bait;
    emitSpillBait(B, RegBank::Int, 12, {EvalCell, Update}, 0.3, Bait);
    B.touch(HotPool, 3);
    B.finish();
  }
  buildDriverMain(*M, Recalc, {100, 100, 10}, 44);
  return M;
}

std::unique_ptr<Module> buildCompress() {
  auto M = std::make_unique<Module>("compress");
  // LZW: the hash/code values are hot in the scan loop and cross only the
  // cold table-flush call.
  Function *Flush = buildLeaf(*M, "cl_hash", RegBank::Int, 5, 8, 51);
  Function *Code = buildHotFunctionWithColdCall(
      *M, "output_code", Flush, RegBank::Int, /*PoolSize=*/8,
      /*InnerTrip=*/15, /*OpsPerIter=*/10, /*ColdProb=*/0.01, 52);
  buildDriverMain(*M, Code, {100, 100, 50}, 53);
  return M;
}

std::unique_ptr<Module> buildEspresso() {
  auto M = std::make_unique<Module>("espresso");
  // Two-level logic minimizer: moderate functions, few values crossing
  // each call — callee-save registers are rarely contended, so the
  // preference decision has nothing to arbitrate.
  Function *Count = buildLeaf(*M, "count_ones", RegBank::Int, 5, 8, 61);

  Function *Expand = M->createFunction("expand");
  {
    SyntheticFunctionBuilder B(*Expand, 62);
    std::vector<VirtReg> CubePool = B.makeValues(RegBank::Int, 6);
    LoopHandles L = B.beginLoop(25);
    B.touch(CubePool, 8);
    BranchHandles Br = B.beginBranch(0.01);
    B.call(Count);
    B.elseBranch(Br);
    B.localWork(RegBank::Int, 2, 3);
    B.endBranch(Br);
    B.touch(CubePool, 2);
    B.endLoop(L);
    B.touch(CubePool, 3);
    B.finish();
  }
  Function *Reduce = buildHotFunctionWithColdCall(
      *M, "reduce", Count, RegBank::Int, /*PoolSize=*/5, /*InnerTrip=*/20,
      /*OpsPerIter=*/8, /*ColdProb=*/0.05, 63);
  (void)Reduce;

  Function *MainF = M->createFunction("main");
  {
    SyntheticFunctionBuilder B(*MainF, 64);
    std::vector<VirtReg> Pool = B.makeValues(RegBank::Int, 4);
    LoopHandles L0 = B.beginLoop(100);
    LoopHandles L1 = B.beginLoop(100);
    B.touch(Pool, 3);
    B.call(Expand);
    B.call(Reduce);
    B.endLoop(L1);
    B.endLoop(L0);
    B.finish();
  }
  M->setEntryFunction(MainF);
  return M;
}

std::unique_ptr<Module> buildGcc() {
  auto M = std::make_unique<Module>("gcc");
  // Compiler passes: several mid-sized functions whose hot-path values
  // cross cold diagnostic/allocation calls — the pattern that starves
  // CBH's callee-save-only rule (§10).
  Function *Oble = buildLeaf(*M, "obstack_alloc", RegBank::Int, 5, 7, 71);
  Function *Warn = buildLeaf(*M, "warning", RegBank::Int, 4, 5, 72);

  Function *Fold = buildHotFunctionWithColdCall(
      *M, "fold_rtx", Oble, RegBank::Int, 9, 18, 11, 0.03, 73);
  Function *Combine = buildHotFunctionWithColdCall(
      *M, "try_combine", Warn, RegBank::Int, 8, 15, 10, 0.02, 74);
  Function *Jump = buildHotFunctionWithColdCall(
      *M, "jump_optimize", Oble, RegBank::Int, 7, 12, 9, 0.05, 75);

  Function *MainF = M->createFunction("main");
  {
    SyntheticFunctionBuilder B(*MainF, 76);
    std::vector<VirtReg> Pool = B.makeValues(RegBank::Int, 4);
    LoopHandles L0 = B.beginLoop(100);
    LoopHandles L1 = B.beginLoop(100);
    B.touch(Pool, 3);
    B.call(Fold);
    B.call(Combine);
    B.call(Jump);
    B.endLoop(L1);
    B.endLoop(L0);
    B.finish();
  }
  M->setEntryFunction(MainF);
  return M;
}

std::unique_ptr<Module> buildDoduc() {
  auto M = std::make_unique<Module>("doduc");
  // Monte-Carlo thermohydraulics: branchy floating-point code, a cold
  // diagnostic call, moderate pressure.
  Function *Diag = buildLeaf(*M, "x21y21", RegBank::Float, 4, 6, 81);

  Function *Kernel = M->createFunction("si");
  {
    SyntheticFunctionBuilder B(*Kernel, 82);
    std::vector<VirtReg> FPool = B.makeValues(RegBank::Float, 7);
    LoopHandles L = B.beginLoop(20);
    BranchHandles Br1 = B.beginBranch(0.3);
    B.touch(FPool, 6);
    B.elseBranch(Br1);
    B.touch(FPool, 4);
    B.localWork(RegBank::Float, 2, 3);
    B.endBranch(Br1);
    B.endLoop(L);
    BranchHandles Cold = B.beginBranch(0.02);
    B.call(Diag);
    B.elseBranch(Cold);
    B.localWork(RegBank::Float, 1, 2);
    B.endBranch(Cold);
    B.touch(FPool, 3);
    B.finish();
  }
  buildDriverMain(*M, Kernel, {100, 100, 20}, 83);
  return M;
}

std::unique_ptr<Module> buildFpppp() {
  auto M = std::make_unique<Module>("fpppp");
  // Gaussian integrals: enormous straight-line blocks of staggered
  // floating-point expressions — high interference degree with a modest
  // clique number, the structure where optimistic coloring shines (§8).
  Function *Dump = buildLeaf(*M, "fmtgen", RegBank::Int, 4, 5, 91);

  Function *Kernel = M->createFunction("fpppp_kernel");
  {
    SyntheticFunctionBuilder B(*Kernel, 92);
    std::vector<VirtReg> FPool = B.makeValues(RegBank::Float, 4);
    LoopHandles L = B.beginLoop(50);
    B.staggeredChain(RegBank::Float, 24, 4);
    B.touch(FPool, 6);
    B.endLoop(L);
    // The blocked-but-colorable structure (degree ~8, clique 5): Chaitin
    // simplification spills parts of it pessimistically; optimistic
    // coloring rescues them — for free, since no call is crossed.
    B.circulantWeb(RegBank::Float, 12, 4, 40, {});
    BranchHandles Cold = B.beginBranch(0.01);
    B.call(Dump);
    B.elseBranch(Cold);
    B.localWork(RegBank::Float, 1, 2);
    B.endBranch(Cold);
    B.touch(FPool, 3);
    B.finish();
  }
  buildDriverMain(*M, Kernel, {10, 100}, 93);
  return M;
}

std::unique_ptr<Module> buildMatrix300() {
  auto M = std::make_unique<Module>("matrix300");
  // Dense matrix multiply: the accumulator values are extremely hot and
  // cross the hot saxpy call; the column bookkeeping values are the
  // spill bait.
  Function *Saxpy = buildLeaf(*M, "saxpy", RegBank::Float, 6, 10, 101);

  Function *Dgemm = M->createFunction("dgemm");
  {
    SyntheticFunctionBuilder B(*Dgemm, 102);
    std::vector<VirtReg> Acc = B.makeValues(RegBank::Float, 7);
    std::vector<VirtReg> Bait = B.makeValues(RegBank::Float, 4);
    LoopHandles J = B.beginLoop(25);
    LoopHandles I = B.beginLoop(20);
    B.touch(Acc, 7);
    B.endLoop(I);
    B.call(Saxpy);
    B.endLoop(J);
    BranchHandles Reuse = B.beginBranch(0.3);
    B.useEach(Bait);
    B.elseBranch(Reuse);
    B.endBranch(Reuse);
    B.useEach(Acc);
    B.finish();
  }
  buildDriverMain(*M, Dgemm, {100}, 103);
  return M;
}

std::unique_ptr<Module> buildNasa7() {
  auto M = std::make_unique<Module>("nasa7");
  // Seven kernels: we model two — an FFT-ish float kernel whose values
  // cross a hot butterfly call with *heterogeneous* costs (the preference
  // decision's arbitration case, §6) and an integer index kernel with a
  // cold bounds-check call (the storage-class case).
  Function *Butterfly = buildLeaf(*M, "btrfly", RegBank::Float, 6, 9, 111);
  Function *Scale = buildLeaf(*M, "cscale", RegBank::Float, 5, 7, 116);
  Function *Twiddle = buildLeaf(*M, "twiddle", RegBank::Float, 5, 8, 117);
  Function *Bounds = buildLeaf(*M, "chkrng", RegBank::Int, 4, 5, 112);

  Function *Fft = M->createFunction("cfft2d");
  {
    SyntheticFunctionBuilder B(*Fft, 113);
    // The Figure 5 situation. Two groups of callee-save-preferring
    // crossing ranges compete for Ef callee-save registers:
    //  - Light: few references, crosses two medium-frequency calls; its
    //    degree is inflated by the staggered expression region, so
    //    simplification removes it late and colors it *first*.
    //  - Heavy: hot accumulators crossing a call inside the hot loop
    //    (large caller-save cost), low degree, colored *after* Light.
    // Without the preference decision the Light ranges grab the
    // callee-save registers they barely benefit from and the Heavy ranges
    // pay save/restores at the hot call; PR displaces the Light ranges by
    // cost (benefit-driven simplification cannot reorder them — their
    // degree keeps them out of the unconstrained pool until the end).
    std::vector<VirtReg> Light = B.makeValues(RegBank::Float, 5);
    B.touch(Light, 20); // Enough references that Light is no spill victim.
    B.staggeredChain(RegBank::Float, 16, 10);
    std::vector<VirtReg> Heavy = B.makeValues(RegBank::Float, 5);
    // Both groups cross these medium-frequency calls — the shared call
    // sites whose L > M contention the preference decision arbitrates.
    B.call(Butterfly);
    B.call(Scale);
    B.useEach(Light); // Last use: Light overlaps Heavy but not the hot loop.
    LoopHandles L = B.beginLoop(20);
    B.touch(Heavy, 8);
    B.call(Twiddle);
    B.touch(Heavy, 2);
    B.endLoop(L);
    BranchHandles Cold = B.beginBranch(0.02);
    B.call(Bounds);
    B.elseBranch(Cold);
    B.localWork(RegBank::Float, 1, 2);
    B.endBranch(Cold);
    B.useEach(Heavy);
    B.finish();
  }
  Function *Idx = buildHotFunctionWithColdCall(
      *M, "vpenta", Bounds, RegBank::Int, 8, 20, 10, 0.02, 114);

  Function *MainF = M->createFunction("main");
  {
    SyntheticFunctionBuilder B(*MainF, 115);
    std::vector<VirtReg> Pool = B.makeValues(RegBank::Int, 4);
    LoopHandles L0 = B.beginLoop(100);
    LoopHandles L1 = B.beginLoop(100);
    B.touch(Pool, 3);
    B.call(Fft);
    B.call(Idx);
    B.endLoop(L1);
    B.endLoop(L0);
    B.finish();
  }
  M->setEntryFunction(MainF);
  return M;
}

std::unique_ptr<Module> buildSpice() {
  auto M = std::make_unique<Module>("spice");
  // Circuit simulation: mixed integer/float device evaluation with cold
  // error handling and low-reference sparse-matrix bookkeeping.
  Function *Error = buildLeaf(*M, "errchk", RegBank::Int, 4, 5, 121);
  Function *Stamp = buildLeaf(*M, "stamp", RegBank::Float, 5, 7, 122);

  Function *Device = M->createFunction("diode_eval");
  {
    SyntheticFunctionBuilder B(*Device, 123);
    std::vector<VirtReg> FPool = B.makeValues(RegBank::Float, 6);
    std::vector<VirtReg> IPool = B.makeValues(RegBank::Int, 5);
    LoopHandles L = B.beginLoop(20);
    B.touch(FPool, 7);
    B.touch(IPool, 4);
    B.endLoop(L);
    B.circulantWeb(RegBank::Int, 12, 5, 1, {Stamp, Stamp, Stamp, Stamp});
    std::vector<VirtReg> Bait;
    emitSpillBait(B, RegBank::Int, 8, {Stamp}, 0.25, Bait);
    BranchHandles Cold = B.beginBranch(0.01);
    B.call(Error);
    B.elseBranch(Cold);
    B.localWork(RegBank::Int, 1, 2);
    B.endBranch(Cold);
    B.touch(FPool, 3);
    B.touch(IPool, 2);
    B.finish();
  }
  buildDriverMain(*M, Device, {100, 100, 10}, 124);
  return M;
}

std::unique_ptr<Module> buildAlvinn() {
  auto M = std::make_unique<Module>("alvinn");
  // Neural-net training: dense float dot products with a hot leaf call;
  // packing matters at few registers, call cost is benign — priority-based
  // and improved Chaitin end up equal here.
  Function *Dot = buildLeaf(*M, "dot8", RegBank::Float, 6, 10, 131);

  Function *Forward = M->createFunction("input_hidden");
  {
    SyntheticFunctionBuilder B(*Forward, 132);
    std::vector<VirtReg> Weights = B.makeValues(RegBank::Float, 8);
    LoopHandles L = B.beginLoop(30);
    B.staggeredChain(RegBank::Float, 20, 5);
    B.touch(Weights, 6);
    B.endLoop(L);
    LoopHandles Units = B.beginLoop(3);
    B.call(Dot);
    B.touch(Weights, 2);
    B.endLoop(Units);
    B.useEach(Weights);
    B.finish();
  }
  buildDriverMain(*M, Forward, {100, 100, 10}, 133);
  return M;
}

std::unique_ptr<Module> buildTomcatv() {
  auto M = std::make_unique<Module>("tomcatv");
  // Vectorized mesh generation: one big function, deep loop nest, no calls
  // at all — every call-cost mechanism is inert and all ratios are 1.0.
  Function *MainF = M->createFunction("main");
  SyntheticFunctionBuilder B(*MainF, 141);
  std::vector<VirtReg> FPool = B.makeValues(RegBank::Float, 10);
  std::vector<VirtReg> IPool = B.makeValues(RegBank::Int, 4);
  LoopHandles L0 = B.beginLoop(100);
  LoopHandles L1 = B.beginLoop(50);
  B.touch(FPool, 10);
  B.touch(IPool, 3);
  LoopHandles L2 = B.beginLoop(50);
  B.staggeredChain(RegBank::Float, 16, 5);
  B.touch(FPool, 4);
  B.endLoop(L2);
  B.endLoop(L1);
  B.endLoop(L0);
  B.touch(FPool, 3);
  B.finish();
  M->setEntryFunction(MainF);
  return M;
}

} // namespace

const std::vector<std::string> &ccra::specProxyNames() {
  static const std::vector<std::string> Names = {
      "alvinn", "compress", "ear",       "eqntott", "espresso",
      "gcc",    "li",       "sc",        "doduc",   "fpppp",
      "matrix300", "nasa7", "spice",     "tomcatv",
  };
  return Names;
}

std::unique_ptr<Module> ccra::buildSpecProxy(const std::string &Name) {
  std::unique_ptr<Module> M;
  if (Name == "alvinn")
    M = buildAlvinn();
  else if (Name == "compress")
    M = buildCompress();
  else if (Name == "ear")
    M = buildEar();
  else if (Name == "eqntott")
    M = buildEqntott();
  else if (Name == "espresso")
    M = buildEspresso();
  else if (Name == "gcc")
    M = buildGcc();
  else if (Name == "li")
    M = buildLi();
  else if (Name == "sc")
    M = buildSc();
  else if (Name == "doduc")
    M = buildDoduc();
  else if (Name == "fpppp")
    M = buildFpppp();
  else if (Name == "matrix300")
    M = buildMatrix300();
  else if (Name == "nasa7")
    M = buildNasa7();
  else if (Name == "spice")
    M = buildSpice();
  else if (Name == "tomcatv")
    M = buildTomcatv();
  assert(M && "unknown SPEC proxy name");
  assert(verifyModule(*M, nullptr) && "proxy module failed verification");
  return M;
}

std::vector<std::pair<std::string, std::unique_ptr<Module>>>
ccra::buildAllSpecProxies() {
  std::vector<std::pair<std::string, std::unique_ptr<Module>>> All;
  for (const std::string &Name : specProxyNames())
    All.emplace_back(Name, buildSpecProxy(Name));
  return All;
}

std::unique_ptr<Module> ccra::loadProgram(const std::string &Input,
                                          std::ostream &Diag) {
  const auto &Proxies = specProxyNames();
  if (std::find(Proxies.begin(), Proxies.end(), Input) != Proxies.end())
    return buildSpecProxy(Input);

  std::ostringstream Buffer;
  if (Input == "-") {
    Buffer << std::cin.rdbuf();
  } else {
    std::ifstream File(Input);
    if (!File) {
      Diag << "cannot open '" << Input << "'\n";
      return nullptr;
    }
    Buffer << File.rdbuf();
  }
  ParseResult R = parseModule(Buffer.str());
  std::vector<std::string> Errors;
  if (!R.ok())
    Errors = std::move(R.Errors);
  else if (verifyModule(*R.M, &Errors))
    return std::move(R.M);
  for (const std::string &E : Errors)
    Diag << Input << ": " << E << '\n';
  return nullptr;
}
