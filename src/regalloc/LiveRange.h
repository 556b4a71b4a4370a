//===- regalloc/LiveRange.h - Live ranges and their cost metrics -*- C++ -*-===//
///
/// \file
/// A live range is one coalescing congruence class of virtual registers
/// together with the cost metrics the paper's storage-class analysis needs
/// (§4): the weighted reference count (== spill cost), the caller-save cost
/// (2 ops per crossed call, frequency weighted), and the callee-save cost
/// (2 ops at entry/exit, entry-frequency weighted). The two benefit
/// functions fall out as differences:
///
///   benefitCaller(lr) = weightedRefs(lr) - callerSaveCost(lr)
///   benefitCallee(lr) = weightedRefs(lr) - calleeSaveCost(lr)
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_LIVERANGE_H
#define CCRA_REGALLOC_LIVERANGE_H

#include "ir/Function.h"

#include <limits>
#include <vector>

namespace ccra {

class FrequencyInfo;
class Liveness;
class VRegClasses;

/// One call instruction, identified densely within its function.
struct CallSite {
  unsigned Id = 0;
  const BasicBlock *Block = nullptr;
  unsigned InstIndex = 0;
  double Freq = 0.0;
  const Instruction *Inst = nullptr;
};

/// A live range: one register congruence class plus cost metrics.
struct LiveRange {
  static constexpr double InfiniteSpillCost =
      std::numeric_limits<double>::infinity();

  unsigned Id = 0;  ///< Dense index within the LiveRangeSet.
  VirtReg Root;     ///< Congruence-class representative.
  RegBank Bank = RegBank::Int;

  /// Frequency-weighted def+use count. Each reference of a spilled live
  /// range becomes one load or store, so this is exactly the spill cost.
  double WeightedRefs = 0.0;
  /// 2 * sum of frequencies of the calls this live range is live across.
  double CallerSaveCost = 0.0;
  /// 2 * function entry frequency: the save/restore a callee-save register
  /// costs at entry/exit.
  double CalleeSaveCost = 0.0;

  unsigned NumRefs = 0;   ///< Unweighted reference count.
  unsigned NumBlocks = 0; ///< Blocks spanned; "size(lr)" of Chow's priority.

  bool NoSpill = false;         ///< Contains a spill temporary.
  bool ContainsCall = false;    ///< Live across at least one call.
  bool ForcedCallerPref = false; ///< Set by the preference-decision phase.

  /// Ids of the CallSites this range is live across, ascending.
  std::vector<unsigned> CrossedCalls;

  bool operator==(const LiveRange &Other) const = default;

  double spillCost() const {
    return NoSpill ? InfiniteSpillCost : WeightedRefs;
  }
  double benefitCaller() const { return WeightedRefs - CallerSaveCost; }
  double benefitCallee() const { return WeightedRefs - CalleeSaveCost; }
};

/// All live ranges of one function in one allocation round, plus the call
/// sites and the vreg -> live-range mapping.
class LiveRangeSet {
public:
  unsigned numRanges() const { return static_cast<unsigned>(Ranges.size()); }

  LiveRange &range(unsigned Id) { return Ranges[Id]; }
  const LiveRange &range(unsigned Id) const { return Ranges[Id]; }

  /// Live-range id of \p R, or -1 if the register never appears in the
  /// code (e.g. it was spilled away in a previous round).
  int rangeIdOf(VirtReg R) const;

  const std::vector<CallSite> &callSites() const { return Calls; }

  std::vector<LiveRange> &ranges() { return Ranges; }
  const std::vector<LiveRange> &ranges() const { return Ranges; }

  /// Appends a live range directly (scenario construction in tests and
  /// tools; regular allocation uses build()). Returns its id.
  unsigned addRange(LiveRange LR);

  /// Appends a call site directly (scenario construction).
  void addCallSite(CallSite CS) { Calls.push_back(std::move(CS)); }

  /// First step of a build: the register -> live-range map of \p F under
  /// \p Classes, one range per referenced class with Id, Root, Bank and
  /// NoSpill set, metrics zero and no call sites. A coalescing pass reads
  /// nothing more, so a pass that merges a copy stops here.
  static LiveRangeSet mapRanges(const Function &F, const VRegClasses &Classes);

  /// Second step, once per mapped set: the call sites and every range's
  /// weighted references, block span, crossed calls and §4 save costs.
  void measure(const Function &F, const Liveness &LV,
               const FrequencyInfo &Freq);

  /// mapRanges followed by measure.
  static LiveRangeSet build(const Function &F, const Liveness &LV,
                            const FrequencyInfo &Freq,
                            const VRegClasses &Classes);

private:
  /// Appends one call site per call of \p F, numbered densely in block
  /// order. measure() starts with it.
  void enumerateCallSites(const Function &F, const FrequencyInfo &Freq);

  std::vector<LiveRange> Ranges;
  std::vector<int> VRegToRange; // by vreg id
  std::vector<CallSite> Calls;
};

} // namespace ccra

#endif // CCRA_REGALLOC_LIVERANGE_H
