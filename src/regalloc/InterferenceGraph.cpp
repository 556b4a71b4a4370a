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

/// One bank's live ranges during a block scan: a bitset over range ids and
/// a summary with one bit per word of it, set while that word is nonzero,
/// so forEachWord(W, Word) visits only the nonzero words, ascending.
struct BankLiveSet {
  static constexpr unsigned BitsPerWord = 64;
  BitVector *Bits = nullptr;
  BitVector *Summary = nullptr;

  void set(unsigned R) {
    Bits->set(R);
    Summary->set(R / BitsPerWord);
  }
  void reset(unsigned R) {
    Bits->reset(R);
    if (Bits->words()[R / BitsPerWord] == 0)
      Summary->reset(R / BitsPerWord);
  }
  template <typename WordFn> void forEachWord(WordFn OnWord) const {
    const std::vector<uint64_t> &Words = Bits->words(), &S = Summary->words();
    for (unsigned I = 0; I < S.size(); ++I)
      for (uint64_t Nonzero = S[I]; Nonzero != 0; Nonzero &= Nonzero - 1) {
        unsigned W = I * BitsPerWord + std::countr_zero(Nonzero);
        OnWord(W, Words[W]);
      }
  }
};

/// The interference rule, in the one place it is written. Walks \p BB
/// backward from \p LiveOut and, at each instruction, reports:
///
///  - OnDef(Def, Interferes) for every result: range Def interferes with
///    exactly the ranges set in Interferes — the live ranges of Def's
///    bank, minus Def itself and, at a copy, minus the copy's source
///    (Chaitin's coalescing-enabling special case: "move d <- s" adds no
///    d-s edge). Those two bits are cleared only for the duration of the
///    call.
///  - OnPair(A, B) for every two results of one instruction that are
///    distinct ranges of the same bank.
///
/// Every register the scan meets is its range's class root, so a range is
/// live exactly while its one register is, and the scan steps the
/// per-bank live-range bitsets directly.
template <typename DefSink, typename PairSink>
void scanBlock(const BasicBlock &BB, const BitVector &LiveOut,
               const LiveRangeSet &LRS, AllocationScratch &S, DefSink OnDef,
               PairSink OnPair) {
  BankLiveSet BankLive[NumRegBanks];
  for (unsigned Bank = 0; Bank < NumRegBanks; ++Bank) {
    BankLive[Bank].Bits =
        &S.bankLiveRanges(static_cast<RegBank>(Bank), LRS.numRanges());
    BankLive[Bank].Summary =
        &S.bankLiveWords(static_cast<RegBank>(Bank), LRS.numRanges());
  }
  auto RangeOf = [&LRS](VirtReg R) {
    int Id = LRS.rangeIdOf(R);
    assert(Id >= 0 && LRS.range(static_cast<unsigned>(Id)).Root == R &&
           "interference scan needs operands rewritten to class roots");
    return static_cast<unsigned>(Id);
  };
  auto BankOf = [&](unsigned R) -> BankLiveSet & {
    return BankLive[static_cast<unsigned>(LRS.range(R).Bank)];
  };

  for (unsigned V : LiveOut) {
    unsigned R = RangeOf(VirtReg(V));
    BankOf(R).set(R);
  }

  const auto &Insts = BB.instructions();
  for (auto It = Insts.rbegin(), E = Insts.rend(); It != E; ++It) {
    const Instruction &I = *It;
    int MoveSrcRange =
        I.isMove() ? static_cast<int>(RangeOf(I.moveSource())) : -1;

    // A def conflicts with everything of its bank live after the
    // instruction, except itself and a copy's source.
    for (VirtReg D : I.Defs) {
      unsigned DefRange = RangeOf(D);
      BankLiveSet &Interferes = BankOf(DefRange);
      bool DefLive = Interferes.Bits->test(DefRange);
      Interferes.reset(DefRange);
      bool SrcLive = MoveSrcRange >= 0 &&
                     Interferes.Bits->test(static_cast<unsigned>(MoveSrcRange));
      if (SrcLive)
        Interferes.reset(static_cast<unsigned>(MoveSrcRange));
      OnDef(DefRange, std::as_const(Interferes));
      if (SrcLive)
        Interferes.set(static_cast<unsigned>(MoveSrcRange));
      if (DefLive)
        Interferes.set(DefRange);
    }
    // Multiple results of one instruction conflict with each other.
    for (size_t A = 0; A + 1 < I.Defs.size(); ++A)
      for (size_t B = A + 1; B < I.Defs.size(); ++B) {
        unsigned RA = RangeOf(I.Defs[A]);
        unsigned RB = RangeOf(I.Defs[B]);
        if (RA != RB && LRS.range(RA).Bank == LRS.range(RB).Bank)
          OnPair(RA, RB);
      }

    // Step the live set backward across the instruction.
    for (VirtReg D : I.Defs) {
      unsigned R = RangeOf(D);
      BankOf(R).reset(R);
    }
    for (VirtReg U : I.Uses) {
      unsigned R = RangeOf(U);
      BankOf(R).set(R);
    }
  }
}

} // namespace

InterferenceGraph::InterferenceGraph(unsigned NumNodes, GraphRep Policy,
                                     AllocationScratch *Scratch)
    : NumNodes(NumNodes), Policy(Policy) {
  Dense = Policy == GraphRep::Dense ||
          (Policy == GraphRep::Auto && NumNodes <= DenseNodeThreshold);
  if (Scratch) {
    if (Dense) {
      Rows = Scratch->takeGraphRows();
      RowSpans = Scratch->takeGraphRowSpans();
    } else
      EdgeSet = Scratch->takeGraphEdgeSet();
  }
  if (Dense) {
    Stride = (NumNodes + BitsPerWord - 1) / BitsPerWord;
    Rows.assign(static_cast<size_t>(NumNodes) * Stride, 0);
    RowSpans.assign(NumNodes, {static_cast<unsigned>(Stride), 0u});
  }
}

void InterferenceGraph::orRowWord(unsigned A, unsigned W, uint64_t Bits) {
  Rows[static_cast<size_t>(A) * Stride + W] |= Bits;
  auto &[Lo, Hi] = RowSpans[A];
  Lo = std::min(Lo, W);
  Hi = std::max(Hi, W + 1);
}

void InterferenceGraph::reopenEdgeSet() {
  EdgeKeys.clear();
  for (unsigned A = 0; A < NumNodes; ++A)
    for (unsigned B : neighbors(A))
      if (A < B)
        EdgeKeys.push_back(edgeKey(A, B));
  EdgeSet.insert(EdgeKeys.begin(), EdgeKeys.end());
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
    EdgeKeys.push_back(edgeKey(A, B));
  }
  Finalized = false;
  ++NumEdges;
}

bool InterferenceGraph::interfere(unsigned A, unsigned B) const {
  if (A == B)
    return false;
  if (Dense)
    return (rowWord(A, B) & bitMask(B)) != 0;
  if (!Finalized)
    return EdgeSet.count(edgeKey(A, B)) != 0;
  // Finalized sparse: binary search the shorter endpoint's sorted row.
  bool AShorter = degree(A) <= degree(B);
  std::span<const unsigned> Row = neighbors(AShorter ? A : B);
  return std::binary_search(Row.begin(), Row.end(), AShorter ? B : A);
}

void InterferenceGraph::mirrorRows() {
  for (unsigned A = 0; A < NumNodes; ++A) {
    const size_t Base = static_cast<size_t>(A) * Stride;
    const auto [Lo, Hi] = RowSpans[A];
    for (unsigned W = Lo; W < Hi; ++W)
      for (uint64_t Bits = Rows[Base + W]; Bits != 0; Bits &= Bits - 1)
        setRowBit(W * BitsPerWord + std::countr_zero(Bits), A);
  }
}

void InterferenceGraph::emitRows() {
  Offsets.resize(static_cast<size_t>(NumNodes) + 1);
  Offsets[0] = 0;
  for (unsigned A = 0; A < NumNodes; ++A) {
    const uint64_t *Row = &Rows[static_cast<size_t>(A) * Stride];
    const auto [Lo, Hi] = RowSpans[A];
    unsigned Degree = 0;
    for (unsigned W = Lo; W < Hi; ++W)
      Degree += static_cast<unsigned>(std::popcount(Row[W]));
    Offsets[A + 1] = Offsets[A] + Degree;
  }
  Neighbors.resize(Offsets[NumNodes]);
  unsigned *Out = Neighbors.data();
  for (unsigned A = 0; A < NumNodes; ++A) {
    const uint64_t *Row = &Rows[static_cast<size_t>(A) * Stride];
    const auto [Lo, Hi] = RowSpans[A];
    for (unsigned W = Lo; W < Hi; ++W)
      for (uint64_t Bits = Row[W]; Bits != 0; Bits &= Bits - 1)
        *Out++ = W * BitsPerWord + std::countr_zero(Bits);
  }
  NumEdges = Neighbors.size() / 2;
}

void InterferenceGraph::emitEdgeSet() {
  Offsets.assign(static_cast<size_t>(NumNodes) + 1, 0);
  for (uint64_t Key : EdgeKeys) {
    ++Offsets[(Key >> 32) + 1];
    ++Offsets[(Key & 0xffffffffu) + 1];
  }
  for (unsigned A = 0; A < NumNodes; ++A)
    Offsets[A + 1] += Offsets[A];
  Neighbors.resize(Offsets[NumNodes]);
  // Scatter with a cursor per row, then sort each row.
  std::vector<unsigned> Next(Offsets.begin(), Offsets.end() - 1);
  for (uint64_t Key : EdgeKeys) {
    unsigned A = static_cast<unsigned>(Key >> 32);
    unsigned B = static_cast<unsigned>(Key & 0xffffffffu);
    Neighbors[Next[A]++] = B;
    Neighbors[Next[B]++] = A;
  }
  for (unsigned A = 0; A < NumNodes; ++A)
    std::sort(Neighbors.begin() + Offsets[A],
              Neighbors.begin() + Offsets[A + 1]);
}

void InterferenceGraph::finalize(AllocationScratch *S) {
  if (!Finalized) {
    if (Dense)
      emitRows();
    else
      emitEdgeSet();
  }
  EdgeKeys = std::vector<uint64_t>();
  if (!Dense && EdgeSet.bucket_count() > 0) {
    EdgeSet.clear();
    if (S)
      S->storeGraphEdgeSet(std::move(EdgeSet));
    EdgeSet = std::unordered_set<uint64_t>();
  }
  Finalized = true;
}

size_t InterferenceGraph::memoryBytes() const {
  size_t Bytes = (Offsets.capacity() + Neighbors.capacity()) * sizeof(unsigned);
  Bytes += (Rows.capacity() + EdgeKeys.capacity()) * sizeof(uint64_t) +
           RowSpans.capacity() * sizeof(RowSpans[0]);
  Bytes += EdgeSet.bucket_count() * sizeof(void *) +
           EdgeSet.size() * (sizeof(uint64_t) + 2 * sizeof(void *));
  return Bytes;
}

void InterferenceGraph::recycle(AllocationScratch &S) {
  Offsets = std::vector<unsigned>();
  Neighbors = std::vector<unsigned>();
  EdgeKeys = std::vector<uint64_t>();
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
  NumNodes = 0;
  NumEdges = 0;
  Finalized = false;
}

void InterferenceGraph::scanBlockForEdges(const BasicBlock &BB,
                                          const BitVector &LiveOut,
                                          const LiveRangeSet &LRS,
                                          InterferenceGraph &IG,
                                          AllocationScratch *Scratch) {
  AllocationScratch Local;
  scanBlock(
      BB, LiveOut, LRS, Scratch ? *Scratch : Local,
      [&IG](unsigned Def, const BankLiveSet &Interferes) {
        Interferes.forEachWord([&](unsigned W, uint64_t Word) {
          for (; Word != 0; Word &= Word - 1)
            IG.addEdge(Def, W * BitsPerWord + std::countr_zero(Word));
        });
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
      scanBlockForEdges(*BB, LV.liveOut(*BB), LRS, IG, &S);
    IG.finalize(&S);
    return IG;
  }
  // Row build: OR each def's interference set into its row a word at a
  // time, then mirror the directed rows and emit the adjacency from them.
  for (const auto &BB : F.blocks())
    scanBlock(
        *BB, LV.liveOut(*BB), LRS, S,
        [&IG](unsigned Def, const BankLiveSet &Interferes) {
          Interferes.forEachWord(
              [&](unsigned W, uint64_t Word) { IG.orRowWord(Def, W, Word); });
        },
        [&IG](unsigned A, unsigned B) { IG.setRowBit(A, B); });
  IG.mirrorRows();
  IG.finalize(&S);
  return IG;
}
