//===- regalloc/Coalescer.h - Copy coalescing -------------------*- C++ -*-===//
///
/// \file
/// The coalescing phase of the framework (paper Figure 1): copies between
/// non-conflicting live ranges are eliminated by merging their congruence
/// classes. The default is Briggs-conservative coalescing (the merged node
/// must have fewer than N neighbors of significant degree, so coalescing
/// can never cause a spill); aggressive mode skips the degree test.
///
/// Each pass canonicalizes operands, derives liveness, builds the live
/// ranges and the interference graph, and sweeps the code merging safe
/// copies — so the final (no-change) pass leaves behind exactly the
/// live-range set and graph the allocator needs next, which run() returns
/// instead of making the caller rebuild them.
///
/// Liveness per pass is the dominant cost, and it is *maintained* instead
/// of recomputed: merging two non-interfering ranges unions their
/// solutions (Liveness::renameRegister is exact for that case), and
/// deleting a copy can only change a block's transfer function in ways a
/// local upward-exposed-use/kill comparison detects — the rare register
/// that fails the comparison gets a surgical single-register re-solve
/// (Liveness::recomputeRegister). A run seeded with valid liveness
/// (SeededLV) therefore does *zero* full Liveness::compute calls, and an
/// unseeded one does exactly one; CoalesceStats reports both so telemetry
/// can prove it. The fuzz oracle's component check compares every
/// maintained result with a recompute-every-pass run.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_COALESCER_H
#define CCRA_REGALLOC_COALESCER_H

#include "analysis/Liveness.h"

namespace ccra {

class AllocationScratch;
class FrequencyInfo;
class Function;
class InterferenceGraph;
class LiveRangeSet;
class MachineDescription;
class Telemetry;
class VRegClasses;

struct CoalesceStats {
  unsigned CoalescedMoves = 0;
  unsigned Passes = 0;
  /// Full Liveness::compute runs (0 when seeded, 1 otherwise, barring the
  /// never-taken pass-cap fallback).
  unsigned LivenessComputes = 0;
  /// Passes whose liveness came from incremental maintenance (renames and
  /// targeted per-register re-solves) instead of a full recompute.
  unsigned IncrementalLVUpdates = 0;
};

/// Per-run configuration of the coalescer.
struct CoalesceRequest {
  bool Aggressive = false;
  /// Maintain liveness across passes by renaming/patching instead of
  /// re-running the dataflow each pass. Bit-identical either way: false is
  /// the recompute-every-pass reference that tests and the fuzz oracle's
  /// component check compare the engine's (always incremental) path with.
  bool IncrementalLiveness = true;
  /// The Liveness passed to run() already holds the exact solution for the
  /// incoming code (the cached baseline at round 1, the spill-maintained
  /// solution at later rounds), so the first pass skips its compute too.
  bool SeededLV = false;
  /// Optional per-worker buffer arena for the internal graph builds.
  AllocationScratch *Scratch = nullptr;
  /// Optional recorder for the build_ranges / build_graph phase timers.
  Telemetry *T = nullptr;
};

class Coalescer {
public:
  /// Coalesces to a fixpoint. Merged copies are deleted from \p F and
  /// their classes merged in \p Classes. On return \p LV holds exact
  /// liveness for the final code, and \p OutLRS / \p OutIG hold the final
  /// pass's live-range set and interference graph (already valid for the
  /// final code — the caller must not rebuild them).
  static CoalesceStats run(Function &F, VRegClasses &Classes,
                           const MachineDescription &MD,
                           const FrequencyInfo &Freq, Liveness &LV,
                           const CoalesceRequest &Req, LiveRangeSet &OutLRS,
                           InterferenceGraph &OutIG);
};

} // namespace ccra

#endif // CCRA_REGALLOC_COALESCER_H
