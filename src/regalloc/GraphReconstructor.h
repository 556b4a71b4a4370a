//===- regalloc/GraphReconstructor.h - Incremental reconstruction -*- C++ -*-===//
///
/// \file
/// The paper's "graph reconstruction" step (§2, Figure 1): after spill-code
/// insertion, the interference graph is *modified* instead of being rebuilt
/// from scratch, which improves compilation time. Spilling changes very
/// little of the allocation state:
///
///  - the spilled classes' registers vanish from the code, so their live
///    ranges, their graph edges, and their liveness bits just disappear;
///  - every other live range keeps its references, crossed calls, and
///    block-boundary liveness exactly (spill loads/stores are *inserted
///    between* existing instructions);
///  - the new reload temporaries live only inside one block, between their
///    spill.load/spill.store and the single instruction using or defining
///    them — their metrics and edges come from rescanning just the blocks
///    that received spill code.
///
/// The patched state is identical to a from-scratch recomputation whenever
/// the coalescing phase has nothing left to do, i.e. the function contains
/// no copies. Spill code never introduces copies, but conservative
/// coalescing leaves the copies it refused in place, so most functions
/// that spill still hold copies and the engine rebuilds through the
/// coalescer instead (on the fuzz_large population, 32 of 2,584 spill
/// rounds take this path). The engine checks the condition every round.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_GRAPHRECONSTRUCTOR_H
#define CCRA_REGALLOC_GRAPHRECONSTRUCTOR_H

#include "analysis/Liveness.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/LiveRange.h"

#include <vector>

namespace ccra {

class AllocationScratch;
class FrequencyInfo;
class VRegClasses;

class GraphReconstructor {
public:
  /// Patches \p LV / \p LRS / \p IG — valid for the code *before* the spill
  /// rewrite — to describe \p F *after* SpillCodeInserter ran.
  /// \p SpilledRangeIds are the live-range ids (in the old \p LRS) that
  /// were spilled; \p OldNumVRegs is the register count before the rewrite
  /// (every register >= OldNumVRegs is a fresh reload temporary). The new
  /// graph inherits the old graph's representation policy and is finalized;
  /// the old graph's buffers are recycled through \p Scratch when given.
  static void apply(const Function &F, const FrequencyInfo &Freq,
                    Liveness &LV, LiveRangeSet &LRS, InterferenceGraph &IG,
                    const std::vector<unsigned> &SpilledRangeIds,
                    unsigned OldNumVRegs, AllocationScratch *Scratch = nullptr);

  /// True if \p F contains no copy instructions — the condition under which
  /// skipping the coalescing phase (and hence using apply()) is exact.
  static bool hasNoCopies(const Function &F);
};

} // namespace ccra

#endif // CCRA_REGALLOC_GRAPHRECONSTRUCTOR_H
