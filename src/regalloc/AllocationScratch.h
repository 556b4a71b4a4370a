//===- regalloc/AllocationScratch.h - Per-worker scratch arena --*- C++ -*-===//
///
/// \file
/// A bundle of reusable buffers for the allocation hot path. Small-function
/// allocation is dominated by malloc churn: every block the interference
/// scan walks used to allocate a fresh BitVector and two vectors, every
/// coalescing pass a Touched array, every round a spill-index map. An
/// AllocationScratch owns those buffers and hands them
/// out re-initialized, so the capacity acquired on the first function is
/// recycled across blocks, passes, rounds, and functions.
///
/// Lifetime and invalidation: a scratch holds no allocation *state*, only
/// capacity — every accessor fully re-initializes the buffer it returns
/// (cleared bits, zeroed counts, empty lists) before handing it out, so a
/// scratch carries nothing from one use to the next and never needs
/// explicit invalidation. The one rule is exclusivity: one scratch, one
/// thread — the engine keeps one per worker slot (ThreadPool slots are
/// unique per concurrent task), the harness one per engine on the serial
/// path.
///
/// Determinism: buffers start each use in a state independent of history,
/// so scratch on/off cannot change any allocation result — only the number
/// of allocations. Reuses (a buffer handed out without growing) is
/// scheduling-dependent and feeds the "sched." telemetry namespace.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_ALLOCATIONSCRATCH_H
#define CCRA_REGALLOC_ALLOCATIONSCRATCH_H

#include "ir/Register.h"
#include "support/BitVector.h"

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ccra {

class AllocationScratch {
public:
  /// Interference scan: the live ranges of bank \p Bank, as a bitset over
  /// range ids. Returned resized to \p NumRanges with every bit clear.
  BitVector &bankLiveRanges(RegBank Bank, unsigned NumRanges) {
    BitVector &Set = BankLiveRanges[static_cast<unsigned>(Bank)];
    noteReuse(Set.size() >= NumRanges);
    Set.resize(NumRanges);
    Set.resetAll();
    return Set;
  }

  /// Interference scan: one bit per word of bankLiveRanges(\p Bank),
  /// sized for \p NumRanges ranges, every bit clear.
  BitVector &bankLiveWords(RegBank Bank, unsigned NumRanges) {
    BitVector &Set = BankLiveWords[static_cast<unsigned>(Bank)];
    unsigned NumWords = (NumRanges + 63) / 64;
    noteReuse(Set.size() >= NumWords);
    Set.resize(NumWords);
    Set.resetAll();
    return Set;
  }

  /// Coalescer: one-merge-per-range-per-pass marks, zeroed.
  std::vector<char> &touchedRanges(unsigned NumRanges) {
    noteReuse(TouchedRanges.capacity() >= NumRanges);
    TouchedRanges.assign(NumRanges, 0);
    return TouchedRanges;
  }

  /// Coalescer: per-instruction deletion marks for one pass, zeroed.
  std::vector<char> &deleteFlags(std::size_t NumInsts) {
    noteReuse(DeleteFlags.capacity() >= NumInsts);
    DeleteFlags.assign(NumInsts, 0);
    return DeleteFlags;
  }

  /// Engine round: spill index per live range, reset to -1.
  std::vector<int> &spillIndexOfRange(unsigned NumRanges) {
    noteReuse(SpillIndexOfRange.capacity() >= NumRanges);
    SpillIndexOfRange.assign(NumRanges, -1);
    return SpillIndexOfRange;
  }

  /// \name Interference-graph buffer pool
  /// Unlike the accessors above, graph buffers are *moved* out (the graph
  /// outlives any single scratch handout) and returned by
  /// InterferenceGraph::recycle / finalize when the graph is done with
  /// them. take* re-initializes nothing beyond emptying — the graph
  /// constructor sizes what it takes.
  /// @{
  std::vector<std::uint64_t> takeGraphRows() {
    noteReuse(GraphRows.capacity() > 0);
    return std::move(GraphRows);
  }
  void storeGraphRows(std::vector<std::uint64_t> &&Rows) {
    GraphRows = std::move(Rows);
  }

  std::vector<std::pair<unsigned, unsigned>> takeGraphRowSpans() {
    noteReuse(GraphRowSpans.capacity() > 0);
    return std::move(GraphRowSpans);
  }
  void storeGraphRowSpans(std::vector<std::pair<unsigned, unsigned>> &&Spans) {
    GraphRowSpans = std::move(Spans);
  }

  std::unordered_set<uint64_t> takeGraphEdgeSet() {
    noteReuse(GraphEdgeSet.bucket_count() > 0);
    GraphEdgeSet.clear();
    return std::move(GraphEdgeSet);
  }
  void storeGraphEdgeSet(std::unordered_set<uint64_t> &&EdgeSet) {
    GraphEdgeSet = std::move(EdgeSet);
  }
  /// @}

  /// Number of times a buffer was handed out without having to grow.
  std::uint64_t reuses() const { return Reuses; }

private:
  void noteReuse(bool Reused) { Reuses += Reused ? 1 : 0; }

  BitVector BankLiveRanges[NumRegBanks];
  BitVector BankLiveWords[NumRegBanks];
  std::vector<char> TouchedRanges;
  std::vector<char> DeleteFlags;
  std::vector<int> SpillIndexOfRange;
  std::vector<std::uint64_t> GraphRows;
  std::vector<std::pair<unsigned, unsigned>> GraphRowSpans;
  std::unordered_set<uint64_t> GraphEdgeSet;
  std::uint64_t Reuses = 0;
};

} // namespace ccra

#endif // CCRA_REGALLOC_ALLOCATIONSCRATCH_H
