//===- tests/InterferenceTest.cpp - Interference graph unit tests ---------===//

#include "analysis/Frequency.h"
#include "analysis/Liveness.h"
#include "fuzz/Oracle.h"
#include "ir/IRBuilder.h"
#include "regalloc/AllocationScratch.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/VRegClasses.h"
#include "support/Rng.h"
#include "workloads/FuzzGen.h"
#include "workloads/RandomProgram.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace ccra;

namespace {

struct GraphFixture {
  Module M{"m"};
  Function *F = nullptr;
  FrequencyInfo Freq;
  VRegClasses Classes;
  LiveRangeSet LRS;
  InterferenceGraph IG;

  void finalize() {
    M.setEntryFunction(F);
    Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
    Liveness LV = Liveness::compute(*F);
    Classes.grow(F->numVRegs());
    LRS = LiveRangeSet::build(*F, LV, Freq, Classes);
    IG = InterferenceGraph::build(*F, LV, LRS);
  }

  bool interfere(VirtReg A, VirtReg B) {
    return IG.interfere(static_cast<unsigned>(LRS.rangeIdOf(A)),
                        static_cast<unsigned>(LRS.rangeIdOf(B)));
  }
  unsigned degreeOf(VirtReg A) {
    return IG.degree(static_cast<unsigned>(LRS.rangeIdOf(A)));
  }
};

TEST(InterferenceGraphTest, AddEdgeIsIdempotentAndSymmetric) {
  InterferenceGraph IG(4);
  IG.addEdge(0, 2);
  IG.addEdge(2, 0);
  IG.addEdge(0, 0); // self edges ignored
  EXPECT_EQ(IG.numEdges(), 1u);
  IG.finalize();
  EXPECT_TRUE(IG.interfere(0, 2));
  EXPECT_TRUE(IG.interfere(2, 0));
  EXPECT_FALSE(IG.interfere(0, 1));
  EXPECT_FALSE(IG.interfere(0, 0));
  EXPECT_EQ(IG.degree(0), 1u);
  EXPECT_EQ(IG.degree(2), 1u);
  EXPECT_EQ(IG.numEdges(), 1u);
}

TEST(InterferenceGraphTest, OverlappingValuesConflict) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg C = B.buildLoadImm(2);        // A live here -> conflict
  VirtReg S = B.buildBinary(Opcode::Add, A, C);
  B.buildRet(S);
  Fx.finalize();
  EXPECT_TRUE(Fx.interfere(A, C));
  EXPECT_FALSE(Fx.interfere(A, S)); // A dies where S is defined
}

TEST(InterferenceGraphTest, SequentialValuesDoNotConflict) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg A2 = B.buildBinary(Opcode::Add, A, A); // A dies here
  VirtReg C = B.buildLoadImm(2);                 // born after A's death
  VirtReg S = B.buildBinary(Opcode::Add, A2, C);
  B.buildRet(S);
  Fx.finalize();
  EXPECT_FALSE(Fx.interfere(A, C));
}

TEST(InterferenceGraphTest, MoveSourceAndDestDoNotConflict) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg Copy = B.buildMove(A); // Chaitin's special case
  B.buildRet(Copy);
  Fx.finalize();
  EXPECT_FALSE(Fx.interfere(A, Copy));
}

TEST(InterferenceGraphTest, MoveRelatedValuesCanShareWhileEqual) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg Copy = B.buildMove(A);
  VirtReg S = B.buildBinary(Opcode::Add, A, Copy); // A used after the copy
  B.buildRet(S);
  Fx.finalize();
  // Both live in [copy, S], but they hold the same value the whole time —
  // no interference, and coalescing may merge them.
  EXPECT_FALSE(Fx.interfere(A, Copy));
}

TEST(InterferenceGraphTest, MoveDestConflictsOnceSourceIsRedefined) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg Copy = B.buildMove(A);
  B.buildBinaryInto(A, Opcode::Add, A, A); // A diverges from Copy
  VirtReg S = B.buildBinary(Opcode::Add, A, Copy);
  B.buildRet(S);
  Fx.finalize();
  EXPECT_TRUE(Fx.interfere(A, Copy));
}

TEST(InterferenceGraphTest, DifferentBanksNeverConflict) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg I = B.buildLoadImm(1);
  VirtReg Fl = B.buildFLoadImm(2);
  VirtReg Fl2 = B.buildBinary(Opcode::FAdd, Fl, Fl);
  VirtReg S = B.buildBinary(Opcode::Add, I, I);
  VirtReg C = B.buildFCmp(Fl2, Fl2);
  VirtReg R = B.buildBinary(Opcode::Add, S, C);
  B.buildRet(R);
  Fx.finalize();
  EXPECT_FALSE(Fx.interfere(I, Fl));
}

TEST(InterferenceGraphTest, MultipleCallResultsConflict) {
  GraphFixture Fx;
  Function *Leaf = Fx.M.createFunction("leaf");
  {
    IRBuilder B(*Leaf);
    B.startBlock("entry");
    B.buildRet();
  }
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  auto Results = B.buildCall(Leaf, {}, {RegBank::Int, RegBank::Int});
  VirtReg S = B.buildBinary(Opcode::Add, Results[0], Results[1]);
  B.buildRet(S);
  Fx.finalize();
  EXPECT_TRUE(Fx.interfere(Results[0], Results[1]));
}

TEST(InterferenceGraphTest, LiveThroughBranchConflictsWithBothArms) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg C = B.buildCmp(A, A);
  BasicBlock *Then = Fx.F->createBlock("then");
  BasicBlock *Else = Fx.F->createBlock("else");
  BasicBlock *Join = Fx.F->createBlock("join");
  B.buildCondBr(C, Then, Else, 0.5);
  B.setInsertBlock(Then);
  VirtReg T = B.buildLoadImm(10);
  VirtReg T2 = B.buildBinary(Opcode::Add, T, T);
  (void)T2;
  B.buildBr(Join);
  B.setInsertBlock(Else);
  VirtReg E = B.buildLoadImm(20);
  VirtReg E2 = B.buildBinary(Opcode::Add, E, E);
  (void)E2;
  B.buildBr(Join);
  B.setInsertBlock(Join);
  B.buildRet(A);
  Fx.finalize();
  EXPECT_TRUE(Fx.interfere(A, T));
  EXPECT_TRUE(Fx.interfere(A, E));
  EXPECT_FALSE(Fx.interfere(T, E)); // disjoint arms
}

TEST(InterferenceGraphTest, DegreeMatchesAdjacency) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  std::vector<VirtReg> Pool;
  for (int I = 0; I < 5; ++I)
    Pool.push_back(B.buildLoadImm(I));
  VirtReg Acc = Pool[0];
  for (int I = 1; I < 5; ++I)
    Acc = B.buildBinary(Opcode::Add, Acc, Pool[static_cast<size_t>(I)]);
  B.buildRet(Acc);
  Fx.finalize();
  // Pool[4] coexists with all other pool values.
  EXPECT_GE(Fx.degreeOf(Pool[4]), 4u);
  for (unsigned Node = 0; Node < Fx.IG.numNodes(); ++Node) {
    const auto &Neighbors = Fx.IG.neighbors(Node);
    EXPECT_EQ(Fx.IG.degree(Node), Neighbors.size());
    for (unsigned Neighbor : Neighbors) {
      EXPECT_TRUE(Fx.IG.interfere(Node, Neighbor));
      const auto &Back = Fx.IG.neighbors(Neighbor);
      EXPECT_NE(std::find(Back.begin(), Back.end(), Node), Back.end());
    }
  }
}

TEST(InterferenceGraphTest, NumEdgesMatchesHandshakeCount) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  std::vector<VirtReg> Pool;
  for (int I = 0; I < 8; ++I)
    Pool.push_back(B.buildLoadImm(I));
  VirtReg Acc = Pool[0];
  for (int I = 1; I < 8; ++I)
    Acc = B.buildBinary(Opcode::Add, Acc, Pool[static_cast<size_t>(I)]);
  B.buildRet(Acc);
  Fx.finalize();
  // The maintained edge counter must agree with the handshake lemma over
  // the adjacency lists it summarizes.
  std::size_t DegreeSum = 0;
  for (unsigned Node = 0; Node < Fx.IG.numNodes(); ++Node)
    DegreeSum += Fx.IG.degree(Node);
  EXPECT_GT(Fx.IG.numEdges(), 0u);
  EXPECT_EQ(Fx.IG.numEdges() * 2, DegreeSum);
}

// --- Dense / sparse representation cross-checks --------------------------

TEST(InterferenceGraphTest, DenseAndSparseAgreeOnRandomPrograms) {
  for (uint64_t Seed : {1u, 7u, 23u}) {
    RandomProgramParams P;
    P.Seed = Seed;
    std::unique_ptr<Module> M = generateRandomProgram(P);
    FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
    for (const auto &F : M->functions()) {
      if (F->isDeclaration())
        continue;
      SCOPED_TRACE(testing::Message()
                   << "seed=" << Seed << " fn=" << F->getName());
      Liveness LV = Liveness::compute(*F);
      VRegClasses Classes(F->numVRegs());
      LiveRangeSet LRS = LiveRangeSet::build(*F, LV, Freq, Classes);
      InterferenceGraph Dense =
          InterferenceGraph::build(*F, LV, LRS, nullptr, GraphRep::Dense);
      InterferenceGraph Sparse =
          InterferenceGraph::build(*F, LV, LRS, nullptr, GraphRep::Sparse);
      ASSERT_EQ(Dense.activeRep(), GraphRep::Dense);
      ASSERT_EQ(Sparse.activeRep(), GraphRep::Sparse);
      ASSERT_EQ(Dense.numNodes(), Sparse.numNodes());
      EXPECT_EQ(Dense.numEdges(), Sparse.numEdges());
      EXPECT_GT(Dense.memoryBytes(), 0u);
      for (unsigned A = 0; A < Dense.numNodes(); ++A) {
        // finalize() canonicalizes adjacency, so the *order* must match
        // too — consumers like the steal fallback observe it.
        EXPECT_TRUE(
            std::ranges::equal(Dense.neighbors(A), Sparse.neighbors(A)));
        for (unsigned B = 0; B < Dense.numNodes(); ++B)
          EXPECT_EQ(Dense.interfere(A, B), Sparse.interfere(A, B));
      }
    }
  }
}

TEST(InterferenceGraphTest, SparseQueriesWorkBeforeAndAfterFinalize) {
  InterferenceGraph IG(8, GraphRep::Sparse);
  ASSERT_EQ(IG.activeRep(), GraphRep::Sparse);
  IG.addEdge(0, 5);
  IG.addEdge(5, 2);
  IG.addEdge(7, 0);
  EXPECT_TRUE(IG.interfere(0, 5)); // hash-set path
  EXPECT_FALSE(IG.interfere(1, 2));
  IG.finalize();
  EXPECT_TRUE(IG.interfere(5, 0)); // binary-search path
  EXPECT_FALSE(IG.interfere(3, 4));
  EXPECT_TRUE(std::ranges::equal(IG.neighbors(0),
                                 std::vector<unsigned>{5, 7})); // canonical
  // addEdge after finalize transparently re-opens the build state, with
  // dedup intact.
  IG.addEdge(1, 0);
  EXPECT_TRUE(IG.interfere(0, 1));
  EXPECT_TRUE(IG.interfere(0, 5));
  IG.addEdge(0, 1);
  EXPECT_EQ(IG.numEdges(), 4u);
  IG.finalize();
  EXPECT_EQ(IG.degree(1), 1u);
  EXPECT_TRUE(std::ranges::equal(IG.neighbors(0),
                                 std::vector<unsigned>{1, 5, 7}));
  EXPECT_EQ(IG.numEdges(), 4u);
  // A duplicate re-opens the build state but adds nothing, and the next
  // new edge re-opens it again without doubling the existing edges.
  IG.addEdge(7, 0);
  IG.addEdge(6, 0);
  IG.finalize();
  EXPECT_TRUE(std::ranges::equal(IG.neighbors(0),
                                 std::vector<unsigned>{1, 5, 6, 7}));
  EXPECT_EQ(IG.degree(7), 1u);
  EXPECT_EQ(IG.numEdges(), 5u);
}

TEST(InterferenceGraphTest, AutoPolicyPicksRepresentationByNodeCount) {
  InterferenceGraph Small(16);
  EXPECT_EQ(Small.activeRep(), GraphRep::Dense);
  // Constructor-only: the sparse representation allocates no V^2 state.
  InterferenceGraph Large(InterferenceGraph::DenseNodeThreshold + 1);
  EXPECT_EQ(Large.activeRep(), GraphRep::Sparse);
  InterferenceGraph Forced(16, GraphRep::Sparse);
  EXPECT_EQ(Forced.activeRep(), GraphRep::Sparse);
}

TEST(InterferenceGraphTest, RecycledBuffersDoNotLeakEdges) {
  AllocationScratch S;
  auto ExpectEmpty = [](const InterferenceGraph &IG) {
    EXPECT_EQ(IG.numEdges(), 0u);
    for (unsigned X = 0; X < IG.numNodes(); ++X) {
      EXPECT_EQ(IG.degree(X), 0u);
      for (unsigned Y = 0; Y < IG.numNodes(); ++Y)
        EXPECT_FALSE(IG.interfere(X, Y));
    }
  };
  for (GraphRep Rep : {GraphRep::Dense, GraphRep::Sparse}) {
    SCOPED_TRACE(Rep == GraphRep::Dense ? "dense" : "sparse");
    InterferenceGraph A(6, Rep, &S);
    A.addEdge(0, 1);
    A.addEdge(2, 3);
    A.addEdge(4, 5);
    A.finalize();
    A.recycle(S);
    InterferenceGraph B(4, Rep, &S);
    B.finalize();
    ExpectEmpty(B);
    B.addEdge(1, 2);
    EXPECT_TRUE(B.interfere(2, 1));
    B.recycle(S);

    // A large graph (3-word rows), then a smaller one (2-word rows) on the
    // same scratch: no bit of the old rows may show through the new
    // stride.
    InterferenceGraph Large(130, Rep, &S);
    for (unsigned X = 0; X < 130; ++X)
      for (unsigned Y = X + 1; Y < 130; Y += 2)
        Large.addEdge(X, Y);
    Large.finalize();
    EXPECT_TRUE(Large.interfere(129, 0));
    Large.recycle(S);
    InterferenceGraph Small(70, Rep, &S);
    Small.finalize();
    ExpectEmpty(Small);
    Small.addEdge(69, 1);
    Small.finalize();
    EXPECT_TRUE(Small.interfere(1, 69));
    EXPECT_TRUE(
        std::ranges::equal(Small.neighbors(69), std::vector<unsigned>{1}));
    EXPECT_EQ(Small.numEdges(), 1u);
    Small.recycle(S);
  }
  EXPECT_GT(S.reuses(), 0u);
}

// --- Row build vs. per-edge build -----------------------------------------

/// The per-edge path on its own: scanBlockForEdges for every block into an
/// empty graph of representation \p Rep, then finalize.
InterferenceGraph buildPerEdge(const Function &F, const Liveness &LV,
                               const LiveRangeSet &LRS, GraphRep Rep) {
  InterferenceGraph IG(LRS.numRanges(), Rep);
  for (const auto &BB : F.blocks())
    InterferenceGraph::scanBlockForEdges(*BB, LV.liveOut(*BB), LRS, IG);
  IG.finalize();
  return IG;
}

void expectSameGraph(const InterferenceGraph &A, const InterferenceGraph &B,
                     bool EveryPair) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  EXPECT_EQ(A.numEdges(), B.numEdges());
  for (unsigned X = 0; X < A.numNodes(); ++X) {
    ASSERT_TRUE(std::ranges::equal(A.neighbors(X), B.neighbors(X)))
        << "node " << X;
    EXPECT_EQ(A.degree(X), B.degree(X));
    if (EveryPair) {
      for (unsigned Y = 0; Y < A.numNodes(); ++Y)
        ASSERT_EQ(A.interfere(X, Y), B.interfere(X, Y))
            << "pair " << X << "," << Y;
    } else {
      for (unsigned Y : A.neighbors(X))
        ASSERT_TRUE(B.interfere(X, Y) && B.interfere(Y, X));
    }
  }
}

/// Checks the row-built dense graph of every function of \p M against the
/// per-edge path into a dense and into a sparse graph, and against the
/// register-granularity reference scan.
void expectRowBuildMatchesPerEdge(const Module &M, bool EveryPair) {
  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    SCOPED_TRACE(F->getName());
    Liveness LV = Liveness::compute(*F);
    VRegClasses Classes(F->numVRegs());
    LiveRangeSet LRS = LiveRangeSet::build(*F, LV, Freq, Classes);
    InterferenceGraph Rows =
        InterferenceGraph::build(*F, LV, LRS, nullptr, GraphRep::Dense);
    ASSERT_EQ(Rows.activeRep(), GraphRep::Dense);
    expectSameGraph(Rows, buildPerEdge(*F, LV, LRS, GraphRep::Dense),
                    EveryPair);
    expectSameGraph(Rows, buildPerEdge(*F, LV, LRS, GraphRep::Sparse),
                    EveryPair);
    expectSameGraph(Rows, referenceInterference(*F, LV, LRS), EveryPair);
  }
}

/// A loop whose body defines exactly \p NumVRegs registers of both banks
/// (one live range each): fresh values, copies (some into a register that
/// interferes with the copy's source elsewhere), two-result calls, and
/// calls that keep random subsets of values live.
std::unique_ptr<Module> shapedModule(unsigned NumVRegs, uint64_t Seed) {
  auto M = std::make_unique<Module>("shape");
  Function *Leaf = M->createFunction("leaf");
  {
    IRBuilder B(*Leaf);
    B.startBlock("entry");
    B.buildRet();
  }
  Function *F = M->createFunction("main");
  M->setEntryFunction(F);
  IRBuilder B(*F);
  Rng R(Seed);
  B.startBlock("entry");
  std::vector<VirtReg> Ints{B.buildLoadImm(0)};
  std::vector<VirtReg> Floats{B.buildFLoadImm(0)};
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.buildBr(Loop);
  B.setInsertBlock(Loop);
  auto SomeLive = [&] {
    std::vector<VirtReg> Args;
    for (int I = 0; I < 4; ++I)
      Args.push_back(R.nextBool() ? R.pick(Ints) : R.pick(Floats));
    return Args;
  };
  // One register is left for the loop condition.
  while (F->numVRegs() + 1 < NumVRegs) {
    unsigned Left = NumVRegs - 1 - F->numVRegs();
    switch (R.nextBelow(7)) {
    case 0:
      Ints.push_back(B.buildLoadImm(R.nextInRange(1, 99)));
      break;
    case 1:
      Floats.push_back(B.buildFLoadImm(R.nextInRange(1, 99)));
      break;
    case 2:
      Ints.push_back(B.buildBinary(Opcode::Add, R.pick(Ints), R.pick(Ints)));
      break;
    case 3:
      if (R.nextBool())
        Ints.push_back(B.buildMove(R.pick(Ints)));
      else
        Floats.push_back(B.buildMove(R.pick(Floats)));
      break;
    case 4:
      // Copy into a register that is already live elsewhere.
      B.buildMoveTo(R.pick(Ints), R.pick(Ints));
      break;
    case 5:
      if (Left >= 2) {
        bool Mixed = R.nextBool();
        auto Results = B.buildCall(
            Leaf, SomeLive(),
            {RegBank::Int, Mixed ? RegBank::Float : RegBank::Int});
        Ints.push_back(Results[0]);
        (Mixed ? Floats : Ints).push_back(Results[1]);
      }
      break;
    default:
      B.buildCall(Leaf, SomeLive());
      break;
    }
  }
  VirtReg C = B.buildCmp(R.pick(Ints), R.pick(Ints));
  B.buildCondBr(C, Loop, Exit, 0.5);
  B.setInsertBlock(Exit);
  B.buildCall(Leaf, SomeLive());
  B.buildRet(R.pick(Ints));
  return M;
}

TEST(InterferenceGraphTest, RowBuildMatchesPerEdgeAtWordBoundaries) {
  for (unsigned NumNodes : {63u, 64u, 65u, 128u, 129u})
    for (uint64_t Seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message()
                   << "nodes=" << NumNodes << " seed=" << Seed);
      std::unique_ptr<Module> M = shapedModule(NumNodes, Seed);
      Function &F = *M->functions().back();
      Liveness LV = Liveness::compute(F);
      VRegClasses Classes(F.numVRegs());
      FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
      LiveRangeSet LRS = LiveRangeSet::build(F, LV, Freq, Classes);
      ASSERT_EQ(LRS.numRanges(), NumNodes);
      expectRowBuildMatchesPerEdge(*M, /*EveryPair=*/true);
    }
}

TEST(InterferenceGraphTest, RowBuildMatchesPerEdgeOnLargeFuzzFunctions) {
  for (FuzzProfile Profile :
       {FuzzProfile::Mixed, FuzzProfile::CallDense, FuzzProfile::HighDegree,
        FuzzProfile::PathologicalLive}) {
    SCOPED_TRACE(fuzzProfileName(Profile));
    FuzzGenParams P;
    P.Seed = 5;
    P.Profile = Profile;
    P.SizeScale = 8;
    expectRowBuildMatchesPerEdge(*generateFuzzModule(P), /*EveryPair=*/true);
  }
}

// Range 0 is live across a body of ~10,000 short ranges, so the scan's
// live words sit at both ends of an id space past DenseNodeThreshold,
// whose bank sets need more than one summary word. Copies of range 0 keep
// its bit out of their destinations' rows.
TEST(InterferenceGraphTest, BuildsMatchReferenceWhenLowIdRangeSpansBody) {
  Module M("span");
  Function *F = M.createFunction("main");
  M.setEntryFunction(F);
  IRBuilder B(*F);
  B.startBlock("entry");
  VirtReg Long = B.buildLoadImm(1);
  VirtReg Acc = B.buildLoadImm(2);
  for (unsigned I = 0; I < 5000; ++I) {
    VirtReg Fresh = I % 97 == 0 ? B.buildMove(Long) : B.buildLoadImm(I);
    Acc = B.buildBinary(Opcode::Add, Acc, Fresh);
  }
  B.buildRet(B.buildBinary(Opcode::Add, Long, Acc));

  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  Liveness LV = Liveness::compute(*F);
  VRegClasses Classes(F->numVRegs());
  LiveRangeSet LRS = LiveRangeSet::build(*F, LV, Freq, Classes);
  ASSERT_GT(LRS.numRanges(), 2 * InterferenceGraph::DenseNodeThreshold);
  InterferenceGraph Auto = InterferenceGraph::build(*F, LV, LRS);
  ASSERT_EQ(Auto.activeRep(), GraphRep::Sparse);
  InterferenceGraph Reference = referenceInterference(*F, LV, LRS);
  expectSameGraph(Auto, Reference, /*EveryPair=*/false);
  // Range 0 conflicts with every range but itself, its 52 copies and the
  // final sum.
  EXPECT_EQ(Auto.degree(0), LRS.numRanges() - 2 - 52);
  expectRowBuildMatchesPerEdge(M, /*EveryPair=*/false);
}

// A copy excludes only its own source from the destination's row: an edge
// between the two that another instruction adds — scanned before or after
// the copy — survives the row build.
TEST(InterferenceGraphTest, CopyKeepsSourceEdgeAddedElsewhere) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  // The scan runs backward, so the Late-A edge from the later defs of Late
  // is set before "Late = move A" is scanned, and the Early-A edge from
  // "Early = 2" only after "Early = move A" was.
  VirtReg A = B.buildLoadImm(1);
  VirtReg Early = B.buildLoadImm(2);
  VirtReg Late = B.buildMove(A);
  B.buildMoveTo(Early, A);
  B.buildMoveTo(Late, Early);
  B.buildBinaryInto(Late, Opcode::Add, Late, A);
  VirtReg S = B.buildBinary(Opcode::Add, A, Late);
  VirtReg S2 = B.buildBinary(Opcode::Add, S, Early);
  B.buildRet(S2);
  Fx.finalize();
  EXPECT_TRUE(Fx.interfere(A, Early));
  EXPECT_TRUE(Fx.interfere(A, Late));
  expectRowBuildMatchesPerEdge(Fx.M, /*EveryPair=*/true);
}

} // namespace
