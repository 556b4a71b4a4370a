//===- regalloc/AssignmentState.h - Color-assignment bookkeeping -*- C++ -*-===//
///
/// \file
/// Shared machinery for the color-assignment phase: which registers each
/// live range may still take given its already-colored neighbors, picking a
/// register by caller/callee-save preference, and tracking per-register
/// user lists (needed by the shared callee-save cost model and by CBH).
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_ASSIGNMENTSTATE_H
#define CCRA_REGALLOC_ASSIGNMENTSTATE_H

#include "regalloc/AllocationContext.h"
#include "target/MachineDescription.h"

#include <cstdint>
#include <vector>

namespace ccra {

/// Which kind of register a live range would rather have.
enum class RegKindPref { Caller, Callee };

class AssignmentState {
public:
  explicit AssignmentState(const AllocationContext &Ctx);

  /// Marks every caller-save register of \p RangeId's bank forbidden (the
  /// CBH rule for call-crossing live ranges).
  void restrictToCalleeSave(unsigned RangeId);

  /// Globally removes \p Reg from the allocatable set (CBH: a callee-save
  /// register whose save/restore live range was not spilled).
  void lockRegister(PhysReg Reg);

  /// Picks a register for \p RangeId avoiding its assigned neighbors.
  /// Preference is tried first; with \p AllowOtherKind the other kind is a
  /// fallback. Callee-save candidates are ordered already-used first (using
  /// a register someone else paid for is free under both cost models).
  /// Returns an invalid PhysReg when nothing is available.
  PhysReg pickRegister(unsigned RangeId, RegKindPref Pref,
                       bool AllowOtherKind = true) const;

  /// True if no live range has been assigned \p Reg yet.
  bool isFirstCalleeUser(PhysReg Reg) const { return usersOf(Reg).empty(); }

  /// True if some callee-save register of \p RangeId's bank is already in
  /// use (its save/restore already paid) and still assignable to
  /// \p RangeId. Reusing such a register is free under both callee-save
  /// cost models (§4).
  bool hasReusableCalleeReg(unsigned RangeId) const;

  void assign(unsigned RangeId, PhysReg Reg);
  /// Removes an assignment (used by the shared-cost spill post-pass and the
  /// steal fallback).
  void unassign(unsigned RangeId);
  void spill(unsigned RangeId);

  bool hasDecision(unsigned RangeId) const { return Decided[RangeId]; }
  const Location &location(unsigned RangeId) const {
    return Assignment[RangeId];
  }

  const std::vector<unsigned> &usersOf(PhysReg Reg) const;

  /// Steal fallback for unspillable reload temporaries: spills the assigned
  /// neighbor of \p RangeId with the smallest spill cost that alone holds
  /// its register, and returns that register. When no such neighbor exists,
  /// moves every neighbor holding some register to other registers free
  /// for them and returns the freed one: coloring in a greedy order can
  /// leave every register held by unspillable temps although no clique
  /// forces it. Returns an invalid register if neither works.
  PhysReg stealRegisterFor(unsigned RangeId);

  /// Assigns unspillable \p RangeId the register stealRegisterFor frees.
  /// Throws UncolorableError when none can be freed: the configuration
  /// has too few registers for some instruction's operands.
  void assignStolen(unsigned RangeId);

  /// Final assignment vector, indexed by live-range id.
  std::vector<Location> takeAssignment() { return std::move(Assignment); }
  const std::vector<Location> &assignment() const { return Assignment; }

private:
  unsigned regSlot(PhysReg Reg) const;
  /// Bit I set: an already-colored neighbor of \p RangeId holds register
  /// I of its bank. Banks hold at most RegisterConfig::MaxBankRegs.
  std::uint64_t takenMask(unsigned RangeId) const;
  bool isForbidden(unsigned RangeId, PhysReg Reg) const;
  /// The last steal fallback: frees a register by moving its holders.
  PhysReg moveHoldersFor(unsigned RangeId);

  const AllocationContext &Ctx;
  std::vector<Location> Assignment;       // by live-range id
  std::vector<bool> Decided;              // by live-range id
  std::vector<bool> CalleeOnly;           // by live-range id (CBH)
  std::vector<bool> Locked;               // by register slot
  std::vector<std::vector<unsigned>> Users; // by register slot
};

} // namespace ccra

#endif // CCRA_REGALLOC_ASSIGNMENTSTATE_H
