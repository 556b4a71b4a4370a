//===- regalloc/SpillCodeInserter.h - Spill code insertion ------*- C++ -*-===//
///
/// \file
/// Rewrites spilled live ranges into spill code (paper Figure 1's
/// "spill-code insertion" phase): every use loads the value from the
/// range's stack slot into a fresh reload temporary just before the using
/// instruction; every def stores the defining temporary right after. The
/// temporaries are unspillable and join the next coloring round — no
/// registers are reserved for spill code.
///
/// The rewrite keeps the function's liveness solution exact under a patch,
/// which is what lets the engine seed every spill round's coalescer with
/// the previous round's liveness instead of re-running the dataflow: the
/// spilled registers vanish from the code (their bits clear), every other
/// register keeps its references and block-boundary liveness (spill loads
/// and stores are inserted between existing instructions), and each reload
/// temporary lives only between its spill.load or spill.store and the one
/// instruction using or defining it, so it is never live at a block
/// boundary (the universe grows with zero bits). fuzz/Oracle's
/// "spill-liveness" check holds the patched solution to a fresh
/// Liveness::compute on every spill round.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_SPILLCODEINSERTER_H
#define CCRA_REGALLOC_SPILLCODEINSERTER_H

#include "ir/Function.h"

#include <vector>

namespace ccra {

class Liveness;

class SpillCodeInserter {
public:
  struct Stats {
    unsigned RangesSpilled = 0;
    unsigned LoadsInserted = 0;
    unsigned StoresInserted = 0;
  };

  /// Spills the given congruence classes (each entry lists the member
  /// virtual registers of one spilled live range). Each class receives one
  /// fresh spill slot. \p LV, when given, is \p F's liveness before the
  /// rewrite and is patched to describe it after (see above).
  static Stats run(Function &F,
                   const std::vector<std::vector<VirtReg>> &SpilledClasses,
                   Liveness *LV = nullptr);
};

} // namespace ccra

#endif // CCRA_REGALLOC_SPILLCODEINSERTER_H
