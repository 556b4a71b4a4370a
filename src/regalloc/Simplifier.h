//===- regalloc/Simplifier.h - Simplification / color ordering --*- C++ -*-===//
///
/// \file
/// Chaitin simplification: repeatedly remove an unconstrained node (degree
/// < N for its bank) and push it onto the color stack; when simplification
/// blocks, pick a spill candidate by the classic spillCost/degree heuristic.
///
/// The removal order among unconstrained nodes is pluggable: base Chaitin
/// does not care (KeyFn null, lowest id wins), the paper's benefit-driven
/// simplification (§5) supplies a key so that live ranges with a large
/// wrong-register penalty end up near the top of the stack.
///
/// Optimistic (Briggs) mode pushes the blocked pick instead of spilling it;
/// the spill decision is deferred to color assignment (§8).
///
/// run() is worklist-driven. Unconstrained nodes live in a (key, index)
/// min-heap over keys cached once per run; constrained nodes in a dense
/// set. Deactivating a node decrements neighbor degrees and migrates a
/// neighbor that drops below its color limit from the constrained set to
/// the heap, so a full pass costs O((V + E) log V) instead of the O(V^2)
/// rescan-everything loop it replaced. Blocked steps take their victim
/// from a SpillVictimHeap, not from a scan of every constrained node. The
/// rescan survives only as a test oracle, referenceSimplify() in
/// fuzz/Oracle.h.
///
/// Identical output is an invariant, not an accident: every tie in both
/// implementations resolves to the lowest node index (the heap orders by
/// (key, index); the reference's first-wins scans visit indices
/// ascending), keys are pure functions of the LiveRange so caching cannot
/// change them, and a node transitions constrained -> unconstrained at most
/// once because degrees only decrease while color limits are fixed.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_SIMPLIFIER_H
#define CCRA_REGALLOC_SIMPLIFIER_H

#include "regalloc/AllocationContext.h"

#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace ccra {

struct SimplifyResult {
  /// Color stack, bottom first; color assignment pops from the back.
  std::vector<unsigned> Stack;
  /// Nodes removed as spills (empty in optimistic mode).
  std::vector<unsigned> SpilledNodes;
  /// Per live-range flag: pushed while simplification was blocked, so a
  /// color is not guaranteed.
  std::vector<bool> PushedOptimistically;
};

/// Spill candidates of a blocked simplification, cheapest first by the
/// classic spillCost/degree metric, the lowest index winning ties. A lazy
/// min-heap over (metric, index): each candidate is pushed once, with its
/// metric at that time. Degrees only fall and spill costs are >= 0, so a
/// node's metric only rises and every entry is a lower bound of its node's
/// current metric. cheapest() pops entries of nodes that left the graph
/// and re-pushes entries whose metric has risen until the top is current;
/// that top is then the exact argmin over the remaining candidates, what
/// a scan of every node finds.
class SpillVictimHeap {
public:
  /// \p Degree and \p Active are the caller's live tables, read on every
  /// query.
  SpillVictimHeap(const LiveRangeSet &LRS, const std::vector<unsigned> &Degree,
                  const std::vector<bool> &Active)
      : LRS(LRS), Degree(Degree), Active(Active) {}

  /// Adds a candidate (not NoSpill, cost not negative or NaN).
  void push(unsigned Node);
  /// The cheapest active candidate, or -1 when none is left.
  int cheapest();
  /// Drops the candidate cheapest() just returned.
  void pop() { Heap.pop(); }
  /// \p Node's current spillCost/degree.
  double metric(unsigned Node) const;

private:
  using Entry = std::pair<double, unsigned>;

  const LiveRangeSet &LRS;
  const std::vector<unsigned> &Degree;
  const std::vector<bool> &Active;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> Heap;
};

class Simplifier {
public:
  /// Ordering key among unconstrained nodes; the *smallest* key is removed
  /// first (ends up lowest on the stack). Null = id order.
  using KeyFn = std::function<double(const LiveRange &)>;

  static SimplifyResult run(const AllocationContext &Ctx, bool Optimistic,
                            const KeyFn &Key = nullptr);
};

} // namespace ccra

#endif // CCRA_REGALLOC_SIMPLIFIER_H
