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
/// Round 1 of every allocation of one source function under one register
/// budget coalesces identically (analysis/AnalysisCache.h says why), so
/// with a shared analysis cache the engine records a run's merges once
/// (CoalesceRequest::MergeLog) and replays them everywhere else
/// (Coalescer::replay): one canonicalizing walk, per-root liveness
/// re-solves on the cached baseline, and the usual final pass, instead of
/// every intermediate pass.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_COALESCER_H
#define CCRA_REGALLOC_COALESCER_H

#include "analysis/Liveness.h"

#include <utility>
#include <vector>

namespace ccra {

class AllocationScratch;
struct CoalesceOutcome;
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
  /// Optional log: run() appends the operands of every VRegClasses::merge
  /// call, in order (a CoalesceOutcome's Merges).
  std::vector<std::pair<VirtReg, VirtReg>> *MergeLog = nullptr;
};

class Coalescer {
public:
  /// Safety cap on passes; a run that reaches it rebuilds from scratch and
  /// is not recorded for replay.
  static constexpr unsigned MaxPasses = 64;

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

  /// Reproduces run() on the pristine code \p F from \p Outcome, a run's
  /// record for this function under the same register totals and mode:
  /// replays the merges on identity \p Classes, canonicalizes and drops
  /// every move that became `w <- w` (exactly the copies the run deleted),
  /// and derives the final liveness from \p LV, the baseline: members of
  /// merged classes vanish, and each root whose code changed is re-solved
  /// alone. Then run()'s final pass builds \p OutLRS / \p OutIG; that
  /// pass must change nothing (asserted). Returns the recorded counters,
  /// so telemetry matches the run being reproduced.
  static CoalesceStats replay(Function &F, VRegClasses &Classes,
                              const MachineDescription &MD,
                              const FrequencyInfo &Freq, Liveness &LV,
                              const CoalesceOutcome &Outcome,
                              const CoalesceRequest &Req,
                              LiveRangeSet &OutLRS, InterferenceGraph &OutIG);
};

} // namespace ccra

#endif // CCRA_REGALLOC_COALESCER_H
