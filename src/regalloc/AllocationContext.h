//===- regalloc/AllocationContext.h - One allocation round ------*- C++ -*-===//
///
/// \file
/// Everything a coloring allocator sees in one round of the framework
/// (Figure 1 of the paper): the function, the target, frequencies,
/// liveness, the live-range set, and the interference graph. After a spill
/// the driver rebuilds the context from coalescing (seeded with the
/// spill-patched liveness) and re-runs the allocator.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_ALLOCATIONCONTEXT_H
#define CCRA_REGALLOC_ALLOCATIONCONTEXT_H

#include "analysis/Liveness.h"
#include "regalloc/AllocationResult.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/LiveRange.h"

#include <vector>

namespace ccra {

class MachineDescription;
class FrequencyInfo;
class Telemetry;

struct AllocationContext {
  Function &F;
  const MachineDescription &MD;
  const FrequencyInfo &Freq;
  Liveness LV;
  LiveRangeSet LRS;
  InterferenceGraph IG;
  double EntryFreq = 0.0;

  /// Callee-save registers whose save/restore cost a previous round's
  /// storage-class analysis refused to pay (its users were spilled as a
  /// group). They stay off-limits for the rest of this function's
  /// allocation so the allocator does not repeatedly buy and return the
  /// same register across spill iterations.
  std::vector<PhysReg> RefusedCalleeRegs;

  /// Optional recorder for intra-round phase timers (alloc.simplify).
  /// Null-safe: allocators pass it to Telemetry::ScopedTimer directly.
  Telemetry *T = nullptr;
};

/// What one allocator round decided.
struct RoundResult {
  /// Location per live-range id. Memory entries are spill decisions.
  std::vector<Location> Assignment;

  /// Callee-save registers whose save/restore cost must be paid even if no
  /// live range uses them (CBH pays per "unlocked" register). When empty,
  /// the driver derives the paid set from actual register usage.
  std::vector<PhysReg> ForcedCalleePaid;
  bool PayUnusedCallee = false;

  /// Registers newly refused by the shared callee-save cost model this
  /// round; the driver carries them into the next round's context.
  std::vector<PhysReg> NewlyRefusedCalleeRegs;

  unsigned VoluntarySpills = 0;
};

} // namespace ccra

#endif // CCRA_REGALLOC_ALLOCATIONCONTEXT_H
