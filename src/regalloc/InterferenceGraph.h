//===- regalloc/InterferenceGraph.h - Conflict graph ------------*- C++ -*-===//
///
/// \file
/// The interference graph of the Chaitin framework: nodes are live ranges,
/// edges connect live ranges that are simultaneously live (within the same
/// register bank — live ranges in different banks never compete for a
/// register, so no edges are needed between them).
///
/// Adjacency is one flat array in compressed sparse rows: node A's
/// neighbors, ascending, are Neighbors[Offsets[A] .. Offsets[A+1]), and
/// neighbors() hands them out as a span. finalize() fills both arrays in
/// two sweeps (degrees, then neighbors) from the build-time edge store,
/// which is one of two representations (GraphRep):
///
///  - Dense: one square bit matrix, row A holding A's neighbors, each row
///    padded to a whole number of 64-bit words (the row stride). O(1)
///    `interfere` (one bit) and edge dedup (`addEdge` sets two bits). The
///    square costs twice the bits of a strict lower triangle, V^2 instead
///    of V*(V-1)/2, and buys word-aligned rows: build() ORs the live ranges
///    of a def's bank into the def's row a word at a time, then mirrors the
///    rows and emits the flat adjacency straight from them, with no
///    per-edge calls and no sort.
///  - Sparse: a hash set of packed (min,max) edge keys provides dedup and
///    O(1) `interfere` while building, and a vector keeps the same keys in
///    insertion order; `finalize()` counts and scatters that vector into
///    the flat adjacency, sorts each row, drops both, and switches
///    `interfere` to a binary search of the smaller endpoint's row.
///
/// Auto policy picks Dense up to DenseNodeThreshold nodes and Sparse above
/// it, so per-function cost scales with V+E instead of V^2 on large
/// functions. Both representations finalize into the *identical* flat
/// adjacency (build() and the graph reconstructor finalize for you), so
/// every consumer — Simplifier, Coalescer, GraphReconstructor,
/// CBHAllocator, AllocationVerifier — is representation-agnostic and
/// allocation results are bit-identical under every policy. neighbors()
/// and degree() answer on a finalized graph only.
///
/// The edge rule (same bank, no self edge, Chaitin's copy exception below,
/// every pair of results of one instruction) lives in one block scan. The
/// row build and the per-edge path (scanBlockForEdges: sparse builds and
/// the reconstructor's rescans) both consume that scan.
///
/// The scan requires (and asserts) that every operand and live-out register
/// is its range's class root, as the coalescer leaves them: a range is then
/// live exactly while its one register is, and the scan keeps one bitset
/// of live ranges per bank, with a summary of its nonzero words so that a
/// def reads O(live ranges + V/4096) words. fuzz/Oracle's
/// referenceInterference keeps the register-granularity scan as reference.
///
/// Copy instructions get the classic Chaitin special case: at "move d <- s"
/// no edge is added between d and s, which is what makes them coalescable.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_INTERFERENCEGRAPH_H
#define CCRA_REGALLOC_INTERFERENCEGRAPH_H

#include "regalloc/LiveRange.h"
#include "support/BitVector.h"

#include <cassert>
#include <span>
#include <unordered_set>
#include <vector>

namespace ccra {

class AllocationScratch;
class Liveness;

/// How InterferenceGraph stores the edge relation (see above). The engine
/// always builds Auto; forcing Dense or Sparse is for tests, the fuzz
/// component check and bench/perf_scaling.
enum class GraphRep {
  Auto, ///< Dense up to DenseNodeThreshold nodes, Sparse above.
  Dense,
  Sparse,
};

class InterferenceGraph {
public:
  /// Auto switches from the bit matrix to sparse adjacency above this node
  /// count. At the threshold the square matrix holds 16M bits (2 MiB) —
  /// still cheap to zero; one step further quadruples per-function memory
  /// for no query-speed win the allocator can measure.
  static constexpr unsigned DenseNodeThreshold = 4096;

  InterferenceGraph() = default;
  /// \p Scratch, when given, donates recycled buffer capacity (matrix
  /// rows, edge-set buckets) instead of fresh allocations.
  explicit InterferenceGraph(unsigned NumNodes,
                             GraphRep Policy = GraphRep::Auto,
                             AllocationScratch *Scratch = nullptr);

  unsigned numNodes() const { return NumNodes; }

  /// Adds an undirected edge (idempotent, ignores self loops).
  void addEdge(unsigned A, unsigned B);

  bool interfere(unsigned A, unsigned B) const;

  /// \p Node's neighbors in ascending order.
  std::span<const unsigned> neighbors(unsigned Node) const {
    assert(Finalized && "adjacency read before finalize()");
    return {Neighbors.data() + Offsets[Node],
            Neighbors.data() + Offsets[Node + 1]};
  }
  unsigned degree(unsigned Node) const {
    assert(Finalized && "adjacency read before finalize()");
    return Offsets[Node + 1] - Offsets[Node];
  }

  /// Total number of undirected edges. O(1): addEdge maintains the count.
  size_t numEdges() const { return NumEdges; }

  /// The policy this graph was created with (Auto/Dense/Sparse); the graph
  /// reconstructor propagates it so a forced representation survives spill
  /// rounds.
  GraphRep policy() const { return Policy; }
  /// The representation actually in use (never Auto).
  GraphRep activeRep() const {
    return Dense ? GraphRep::Dense : GraphRep::Sparse;
  }

  /// Fills the flat adjacency (identical across representations) and, in
  /// sparse mode, releases the build-time edge hash set in favor of
  /// binary-search `interfere`. Idempotent; addEdge after finalize
  /// re-opens the build state. \p S, when given, receives the released
  /// sparse edge-set buckets for the next build.
  void finalize(AllocationScratch *S = nullptr);

  /// Approximate heap bytes held by the graph (flat adjacency, matrix
  /// rows, edge-set buckets) — feeds the alloc.peak_graph_bytes counter.
  size_t memoryBytes() const;

  /// Returns the internal buffers' capacity to \p S so the next graph built
  /// with that scratch starts from recycled storage. Leaves this graph
  /// empty.
  void recycle(AllocationScratch &S);

  /// Builds the graph for \p F from liveness and the live-range set: a
  /// dense graph a row word at a time, a sparse one edge by edge; operands
  /// must be class roots (see above). \p Scratch, when given, supplies the
  /// per-block scan buffers and recycled graph storage (one internal arena
  /// is used otherwise). The returned graph is finalized.
  static InterferenceGraph build(const Function &F, const Liveness &LV,
                                 const LiveRangeSet &LRS,
                                 AllocationScratch *Scratch = nullptr,
                                 GraphRep Policy = GraphRep::Auto);

  /// Adds every interference edge arising within \p BB (given its live-out
  /// set) to \p IG, one addEdge per pair. Idempotent; sparse builds use it,
  /// and the incremental graph reconstruction uses it to rescan only the
  /// blocks spill code touched; operands must be class roots. \p Scratch,
  /// when given, supplies the scan buffers instead of per-call allocations.
  static void scanBlockForEdges(const BasicBlock &BB,
                                const BitVector &LiveOut,
                                const LiveRangeSet &LRS,
                                InterferenceGraph &IG,
                                AllocationScratch *Scratch = nullptr);

private:
  static constexpr unsigned BitsPerWord = 64;
  static uint64_t bitMask(unsigned Node) {
    return uint64_t(1) << (Node % BitsPerWord);
  }
  /// Dense: the word of row \p A that holds column \p B.
  uint64_t &rowWord(unsigned A, unsigned B) {
    return Rows[static_cast<size_t>(A) * Stride + B / BitsPerWord];
  }
  uint64_t rowWord(unsigned A, unsigned B) const {
    return Rows[static_cast<size_t>(A) * Stride + B / BitsPerWord];
  }
  /// Dense: ORs \p Bits into word \p W of row \p A / sets bit \p B of it.
  void orRowWord(unsigned A, unsigned W, uint64_t Bits);
  void setRowBit(unsigned A, unsigned B) {
    orRowWord(A, B / BitsPerWord, bitMask(B));
  }
  /// Dense row build: sets the mirror of every set bit, so each row holds
  /// all of its node's neighbors.
  void mirrorRows();
  /// Dense / sparse: fills the flat adjacency from the rows / EdgeKeys.
  void emitRows();
  void emitEdgeSet();
  static uint64_t edgeKey(unsigned A, unsigned B) {
    if (A > B)
      std::swap(A, B);
    return (static_cast<uint64_t>(A) << 32) | B;
  }
  /// Sparse mode: rebuilds EdgeSet and EdgeKeys from the flat adjacency
  /// (used when addEdge is called on a finalized graph).
  void reopenEdgeSet();

  unsigned NumNodes = 0;
  std::vector<unsigned> Offsets;        // finalized: row A starts at [A]
  std::vector<unsigned> Neighbors;
  std::vector<uint64_t> Rows;           // dense: numNodes() rows of Stride words
  size_t Stride = 0;                    // dense: words per row
  /// Dense: per row, the half-open range of words that may be nonzero
  /// (every word outside it is zero). Mirroring and emitting walk only
  /// these words, so a long, low-degree graph does not read V^2 bits
  /// twice over.
  std::vector<std::pair<unsigned, unsigned>> RowSpans;
  std::unordered_set<uint64_t> EdgeSet; // sparse: dedup until finalize()
  std::vector<uint64_t> EdgeKeys; // sparse: EdgeSet's keys, insertion order
  size_t NumEdges = 0;
  GraphRep Policy = GraphRep::Auto;
  bool Dense = true;
  bool Finalized = false;
};

} // namespace ccra

#endif // CCRA_REGALLOC_INTERFERENCEGRAPH_H
