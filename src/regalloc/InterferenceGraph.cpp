//===- regalloc/InterferenceGraph.cpp -------------------------------------===//

#include "regalloc/InterferenceGraph.h"

#include "analysis/Liveness.h"
#include "regalloc/AllocationScratch.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

using namespace ccra;

namespace {

/// The interference rule, in the one place it is written. Walks \p BB
/// backward from \p LiveOut and, at each instruction, reports:
///
///  - OnDef(Def, Interferes, LiveList) for every result: range Def
///    interferes with exactly the ranges set in Interferes — the live
///    ranges of Def's bank, minus Def itself and, at a copy, minus the
///    copy's source (Chaitin's coalescing-enabling special case: "move
///    d <- s" adds no d-s edge). Those two bits are cleared only for the
///    duration of the call. LiveList is every live range of either bank,
///    for sinks that would rather walk the live ranges than the bitset.
///  - OnPair(A, B) for every two results of one instruction that are
///    distinct ranges of the same bank.
///
/// Liveness is tracked at vreg granularity (Live); a live *range* is live
/// while any member vreg is, maintained as a per-range count, a per-bank
/// bitset, and a dense list of currently live ranges (with a position
/// index for O(1) removal).
template <typename DefSink, typename PairSink>
void scanBlock(const Function &F, const BasicBlock &BB,
               const BitVector &LiveOut, const LiveRangeSet &LRS,
               AllocationScratch &S, DefSink OnDef, PairSink OnPair) {
  BitVector &Live = S.liveBits(F.numVRegs());
  std::vector<unsigned> &LiveCount = S.rangeLiveCount(LRS.numRanges());
  std::vector<unsigned> &LiveList = S.rangeLiveList();
  std::vector<unsigned> &LivePos = S.rangeLivePos(LRS.numRanges());
  BitVector *BankLive[NumRegBanks];
  for (unsigned Bank = 0; Bank < NumRegBanks; ++Bank)
    BankLive[Bank] =
        &S.bankLiveRanges(static_cast<RegBank>(Bank), LRS.numRanges());
  auto BankOf = [&](unsigned R) -> BitVector & {
    return *BankLive[static_cast<unsigned>(LRS.range(R).Bank)];
  };

  auto VRegBecameLive = [&](unsigned V) {
    unsigned R = static_cast<unsigned>(LRS.rangeIdOf(VirtReg(V)));
    if (LiveCount[R]++ == 0) {
      LivePos[R] = static_cast<unsigned>(LiveList.size());
      LiveList.push_back(R);
      BankOf(R).set(R);
    }
  };
  auto VRegBecameDead = [&](unsigned V) {
    unsigned R = static_cast<unsigned>(LRS.rangeIdOf(VirtReg(V)));
    assert(LiveCount[R] > 0 && "kill of dead range");
    if (--LiveCount[R] == 0) {
      unsigned Pos = LivePos[R];
      unsigned Last = LiveList.back();
      LiveList[Pos] = Last;
      LivePos[Last] = Pos;
      LiveList.pop_back();
      BankOf(R).reset(R);
    }
  };

  for (unsigned V : LiveOut) {
    Live.set(V);
    VRegBecameLive(V);
  }

  const auto &Insts = BB.instructions();
  for (auto It = Insts.rbegin(), E = Insts.rend(); It != E; ++It) {
    const Instruction &I = *It;
    int MoveSrcRange = I.isMove() ? LRS.rangeIdOf(I.moveSource()) : -1;

    // A def conflicts with everything of its bank live after the
    // instruction, except itself and a copy's source.
    for (VirtReg D : I.Defs) {
      unsigned DefRange = static_cast<unsigned>(LRS.rangeIdOf(D));
      BitVector &Interferes = BankOf(DefRange);
      bool DefLive = Interferes.test(DefRange);
      Interferes.reset(DefRange);
      bool SrcLive = MoveSrcRange >= 0 &&
                     Interferes.test(static_cast<unsigned>(MoveSrcRange));
      if (SrcLive)
        Interferes.reset(static_cast<unsigned>(MoveSrcRange));
      OnDef(DefRange, std::as_const(Interferes), std::as_const(LiveList));
      if (SrcLive)
        Interferes.set(static_cast<unsigned>(MoveSrcRange));
      if (DefLive)
        Interferes.set(DefRange);
    }
    // Multiple results of one instruction conflict with each other.
    for (size_t A = 0; A + 1 < I.Defs.size(); ++A)
      for (size_t B = A + 1; B < I.Defs.size(); ++B) {
        unsigned RA = static_cast<unsigned>(LRS.rangeIdOf(I.Defs[A]));
        unsigned RB = static_cast<unsigned>(LRS.rangeIdOf(I.Defs[B]));
        if (RA != RB && LRS.range(RA).Bank == LRS.range(RB).Bank)
          OnPair(RA, RB);
      }

    // Step the live set backward across the instruction.
    for (VirtReg D : I.Defs)
      if (Live.test(D.Id)) {
        Live.reset(D.Id);
        VRegBecameDead(D.Id);
      }
    for (VirtReg U : I.Uses)
      if (!Live.test(U.Id)) {
        Live.set(U.Id);
        VRegBecameLive(U.Id);
      }
  }
}

} // namespace

InterferenceGraph::InterferenceGraph(unsigned NumNodes, GraphRep Policy,
                                     AllocationScratch *Scratch)
    : Policy(Policy) {
  Dense = Policy == GraphRep::Dense ||
          (Policy == GraphRep::Auto && NumNodes <= DenseNodeThreshold);
  if (Scratch) {
    Adj = Scratch->takeGraphAdj();
    if (Dense) {
      Rows = Scratch->takeGraphRows();
      RowSpans = Scratch->takeGraphRowSpans();
    } else
      EdgeSet = Scratch->takeGraphEdgeSet();
  }
  // Recycled adjacency keeps per-node capacity; trim or grow to NumNodes
  // with every kept list emptied.
  if (Adj.size() > NumNodes)
    Adj.resize(NumNodes);
  for (auto &List : Adj)
    List.clear();
  Adj.resize(NumNodes);
  if (Dense) {
    Stride = (NumNodes + BitsPerWord - 1) / BitsPerWord;
    Rows.assign(static_cast<size_t>(NumNodes) * Stride, 0);
    RowSpans.assign(NumNodes, {static_cast<unsigned>(Stride), 0u});
  }
}

void InterferenceGraph::setRowBit(unsigned A, unsigned B) {
  rowWord(A, B) |= bitMask(B);
  auto &[Lo, Hi] = RowSpans[A];
  Lo = std::min(Lo, B / BitsPerWord);
  Hi = std::max(Hi, B / BitsPerWord + 1);
}

void InterferenceGraph::orIntoRow(unsigned A,
                                  const std::vector<uint64_t> &Words) {
  unsigned First = 0, Last = static_cast<unsigned>(Stride);
  while (First < Last && Words[First] == 0)
    ++First;
  while (Last > First && Words[Last - 1] == 0)
    --Last;
  if (First == Last)
    return;
  uint64_t *Row = &rowWord(A, 0);
  for (unsigned W = First; W < Last; ++W)
    Row[W] |= Words[W];
  auto &[Lo, Hi] = RowSpans[A];
  Lo = std::min(Lo, First);
  Hi = std::max(Hi, Last);
}

void InterferenceGraph::reopenEdgeSet() {
  EdgeSet.reserve(NumEdges + NumEdges / 2);
  for (unsigned A = 0; A < Adj.size(); ++A)
    for (unsigned B : Adj[A])
      if (A < B)
        EdgeSet.insert(edgeKey(A, B));
}

void InterferenceGraph::addEdge(unsigned A, unsigned B) {
  assert(A < numNodes() && B < numNodes() && "node out of range");
  if (A == B)
    return;
  if (Dense) {
    if (rowWord(A, B) & bitMask(B))
      return;
    setRowBit(A, B);
    setRowBit(B, A);
  } else {
    if (Finalized)
      reopenEdgeSet();
    if (!EdgeSet.insert(edgeKey(A, B)).second)
      return;
  }
  Finalized = false;
  Adj[A].push_back(B);
  Adj[B].push_back(A);
  ++NumEdges;
}

bool InterferenceGraph::interfere(unsigned A, unsigned B) const {
  if (A == B)
    return false;
  if (Dense)
    return (rowWord(A, B) & bitMask(B)) != 0;
  if (!Finalized)
    return EdgeSet.count(edgeKey(A, B)) != 0;
  // Finalized sparse: binary search the shorter endpoint's sorted list.
  bool AShorter = Adj[A].size() <= Adj[B].size();
  const std::vector<unsigned> &List = AShorter ? Adj[A] : Adj[B];
  unsigned Target = AShorter ? B : A;
  return std::binary_search(List.begin(), List.end(), Target);
}

void InterferenceGraph::mirrorRows() {
  for (unsigned A = 0; A < numNodes(); ++A) {
    const size_t Base = static_cast<size_t>(A) * Stride;
    const auto [Lo, Hi] = RowSpans[A];
    for (unsigned W = Lo; W < Hi; ++W)
      for (uint64_t Bits = Rows[Base + W]; Bits != 0; Bits &= Bits - 1)
        setRowBit(W * BitsPerWord + std::countr_zero(Bits), A);
  }
}

void InterferenceGraph::emitRows() {
  size_t DegreeSum = 0;
  for (unsigned A = 0; A < numNodes(); ++A) {
    const size_t Base = static_cast<size_t>(A) * Stride;
    const auto [Lo, Hi] = RowSpans[A];
    std::vector<unsigned> &List = Adj[A];
    List.clear();
    // Size the list once from the row's popcount instead of growing it
    // by doubling.
    size_t Degree = 0;
    for (unsigned W = Lo; W < Hi; ++W)
      Degree += static_cast<size_t>(std::popcount(Rows[Base + W]));
    List.reserve(Degree);
    for (unsigned W = Lo; W < Hi; ++W)
      for (uint64_t Bits = Rows[Base + W]; Bits != 0; Bits &= Bits - 1)
        List.push_back(W * BitsPerWord + std::countr_zero(Bits));
    DegreeSum += List.size();
  }
  NumEdges = DegreeSum / 2;
}

void InterferenceGraph::finalize(AllocationScratch *S) {
  if (!Finalized) {
    if (Dense)
      emitRows();
    else
      for (auto &List : Adj)
        std::sort(List.begin(), List.end());
  }
  if (!Dense && EdgeSet.bucket_count() > 0) {
    EdgeSet.clear();
    if (S)
      S->storeGraphEdgeSet(std::move(EdgeSet));
    EdgeSet = std::unordered_set<uint64_t>();
  }
  Finalized = true;
}

size_t InterferenceGraph::memoryBytes() const {
  size_t Bytes = Adj.capacity() * sizeof(std::vector<unsigned>);
  for (const auto &List : Adj)
    Bytes += List.capacity() * sizeof(unsigned);
  Bytes += Rows.capacity() * sizeof(uint64_t) +
           RowSpans.capacity() * sizeof(RowSpans[0]);
  Bytes += EdgeSet.bucket_count() * sizeof(void *) +
           EdgeSet.size() * (sizeof(uint64_t) + 2 * sizeof(void *));
  return Bytes;
}

void InterferenceGraph::recycle(AllocationScratch &S) {
  S.storeGraphAdj(std::move(Adj));
  Adj = std::vector<std::vector<unsigned>>();
  if (Dense) {
    S.storeGraphRows(std::move(Rows));
    S.storeGraphRowSpans(std::move(RowSpans));
    Rows = std::vector<uint64_t>();
    RowSpans = std::vector<std::pair<unsigned, unsigned>>();
    Stride = 0;
  } else if (EdgeSet.bucket_count() > 0) {
    S.storeGraphEdgeSet(std::move(EdgeSet));
    EdgeSet = std::unordered_set<uint64_t>();
  }
  NumEdges = 0;
  Finalized = false;
}

void InterferenceGraph::scanBlockForEdges(const Function &F,
                                          const BasicBlock &BB,
                                          const BitVector &LiveOut,
                                          const LiveRangeSet &LRS,
                                          InterferenceGraph &IG,
                                          AllocationScratch *Scratch) {
  AllocationScratch Local;
  scanBlock(
      F, BB, LiveOut, LRS, Scratch ? *Scratch : Local,
      [&IG](unsigned Def, const BitVector &Interferes,
            const std::vector<unsigned> &LiveList) {
        for (unsigned Other : LiveList)
          if (Interferes.test(Other))
            IG.addEdge(Def, Other);
      },
      [&IG](unsigned A, unsigned B) { IG.addEdge(A, B); });
}

InterferenceGraph InterferenceGraph::build(const Function &F,
                                           const Liveness &LV,
                                           const LiveRangeSet &LRS,
                                           AllocationScratch *Scratch,
                                           GraphRep Policy) {
  // Even without a caller-provided arena, share one across the blocks of
  // this build instead of allocating per block.
  AllocationScratch Local;
  AllocationScratch &S = Scratch ? *Scratch : Local;
  InterferenceGraph IG(LRS.numRanges(), Policy, &S);
  if (!IG.Dense) {
    for (const auto &BB : F.blocks())
      scanBlockForEdges(F, *BB, LV.liveOut(*BB), LRS, IG, &S);
    IG.finalize(&S);
    return IG;
  }
  // Row build: OR each def's interference set into its row a word at a
  // time, then mirror the directed rows and emit the lists from them. When
  // fewer ranges are live than a row has words (long, low-degree
  // functions), setting their bits one by one touches less of the row.
  for (const auto &BB : F.blocks())
    scanBlock(
        F, *BB, LV.liveOut(*BB), LRS, S,
        [&IG](unsigned Def, const BitVector &Interferes,
              const std::vector<unsigned> &LiveList) {
          if (LiveList.size() < IG.Stride) {
            for (unsigned Other : LiveList)
              if (Interferes.test(Other))
                IG.setRowBit(Def, Other);
            return;
          }
          IG.orIntoRow(Def, Interferes.words());
        },
        [&IG](unsigned A, unsigned B) { IG.setRowBit(A, B); });
  IG.mirrorRows();
  IG.finalize(&S);
  return IG;
}
