//===- analysis/Liveness.h - Backward liveness dataflow ---------*- C++ -*-===//
///
/// \file
/// Classic backward live-variable analysis over virtual registers. The
/// interference-graph builder consumes the per-block live-out sets and
/// re-derives instruction-level liveness with a local backward scan.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_ANALYSIS_LIVENESS_H
#define CCRA_ANALYSIS_LIVENESS_H

#include "ir/Function.h"
#include "support/BitVector.h"

#include <vector>

namespace ccra {

class Liveness {
public:
  /// Runs the dataflow to a fixpoint for \p F.
  static Liveness compute(const Function &F);

  const BitVector &liveIn(const BasicBlock &BB) const {
    return In[BB.getId()];
  }
  const BitVector &liveOut(const BasicBlock &BB) const {
    return Out[BB.getId()];
  }

  /// Number of virtual registers the sets are defined over.
  unsigned numVRegs() const { return NumVRegs; }

  /// Returns true if \p R is live at function entry — a well-formed
  /// function defines everything before use, so this indicates a
  /// use-before-def bug.
  bool liveIntoEntry(const Function &F, VirtReg R) const;

  // Incremental maintenance. Spill code insertion (SpillCodeInserter): a
  // spilled register vanishes from the code (clear its bits); reload
  // temporaries never live across block boundaries (grow the universe with
  // zero bits). Coalescing: folding two non-interfering ranges unions
  // their solutions (renameRegister), and the rare block whose transfer
  // function a deleted copy changed gets a surgical single-register
  // re-solve (recomputeRegister). All keep the sets exact without
  // re-running the whole-function dataflow.

  /// Clears \p R from every live-in/live-out set.
  void eraseRegister(VirtReg R);

  /// Extends every set to cover \p NewNumVRegs registers (new bits zero).
  void growUniverse(unsigned NewNumVRegs);

  /// Folds \p From into \p To: wherever From was live, To becomes live,
  /// and From's bits are cleared. Exact when the two registers' ranges
  /// never interfere (neither is defined while the other is live) — the
  /// condition the coalescer establishes before merging — because then the
  /// merged register's solution is precisely the pointwise union.
  void renameRegister(VirtReg From, VirtReg To);

  /// Re-solves the dataflow for register \p R alone, given its per-block
  /// upward-exposed-use and kill bits (indexed by block id), leaving every
  /// other register's bits untouched. The caller computes \p UEVar /
  /// \p Kill from the current code; this runs the fixpoint for that one
  /// bit, which is sound because liveness decomposes per register.
  void recomputeRegister(const Function &F, VirtReg R,
                         const std::vector<unsigned char> &UEVar,
                         const std::vector<unsigned char> &Kill);

  /// Exact set equality, block by block. Used by tests to certify that
  /// incrementally maintained solutions match a fresh dataflow run.
  bool operator==(const Liveness &Other) const = default;

private:
  unsigned NumVRegs = 0;
  std::vector<BitVector> In, Out; // by block id
};

} // namespace ccra

#endif // CCRA_ANALYSIS_LIVENESS_H
