//===- regalloc/CBHAllocator.h - Chaitin/Briggs/Hierarchical ----*- C++ -*-===//
///
/// \file
/// The CBH call-cost model of §10, the extension of Chaitin-style coloring
/// adopted by several compilers (Briggs; the Tera hierarchical allocator):
///
/// - A live range that crosses a call interferes with *all* caller-save
///   registers, so it can only be colored with a callee-save register.
/// - Each callee-save register gets a "callee-save-register live range"
///   spanning the whole function with spill cost 2 x entryFreq (the
///   save/restore at entry/exit). It interferes with every ordinary live
///   range. "Spilling" such a range pays the save/restore once and unlocks
///   the register for ordinary live ranges.
///
/// When simplification blocks, the cheapest remaining candidate is chosen
/// among ordinary live ranges *and* the still-locked callee-save-register
/// live ranges.
///
/// simplify() keeps the eligible nodes (effective degree below the bank's
/// register count) in a min-heap of node indices. Effective degrees only
/// fall — a neighbor leaves, or a callee-save register unlocks — so a node
/// that becomes eligible stays eligible until it is popped, and the pop
/// order is exactly the "lowest eligible index" of the O(V^2) rescan it
/// replaced. That rescan survives as a test oracle,
/// referenceCBHSimplify() in fuzz/Oracle.h.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_CBHALLOCATOR_H
#define CCRA_REGALLOC_CBHALLOCATOR_H

#include "regalloc/AllocatorOptions.h"
#include "regalloc/RegAllocBase.h"

#include <vector>

namespace ccra {

/// What CBH's simplification decided for one round.
struct CBHSimplifyResult {
  /// Color stack, bottom first; color assignment pops from the back.
  std::vector<unsigned> Stack;
  /// Ordinary live ranges chosen as spill victims.
  std::vector<unsigned> SpilledNodes;
  /// Per live-range flag: pushed while blocked with nothing spillable, so a
  /// color is not guaranteed.
  std::vector<bool> PushedBlocked;
  /// Per bank, how many callee-save-register live ranges were spilled
  /// (their registers unlocked). Unlocking takes the lowest locked index,
  /// so these are always the bank's first callee-save registers.
  unsigned Unlocked[NumRegBanks] = {0, 0};
};

class CBHAllocator : public RegAllocBase {
public:
  explicit CBHAllocator(const AllocatorOptions &Opts) : Opts(Opts) {}

  void runRound(AllocationContext &Ctx, RoundResult &RR) override;
  const char *name() const override { return "cbh"; }

  /// The worklist simplification of one round (see the file comment).
  static CBHSimplifyResult simplify(const AllocationContext &Ctx);

private:
  AllocatorOptions Opts;
};

} // namespace ccra

#endif // CCRA_REGALLOC_CBHALLOCATOR_H
