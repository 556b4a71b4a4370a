//===- regalloc/AllocationResult.h - Locations and cost breakdown -*- C++ -*-===//
///
/// \file
/// The outputs of register allocation: per-register storage locations and
/// the paper's cost breakdown (§3) — spill cost + caller-save cost +
/// callee-save cost + shuffle cost, all in frequency-weighted overhead
/// operations relative to a perfect allocation with unbounded registers.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_ALLOCATIONRESULT_H
#define CCRA_REGALLOC_ALLOCATIONRESULT_H

#include "ir/Register.h"

#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace ccra {

class Function;

/// Where a live range ended up: a physical register or its stack home.
struct Location {
  enum class Kind { Register, Memory } K = Kind::Memory;
  PhysReg Reg;

  static Location inRegister(PhysReg R) {
    Location L;
    L.K = Kind::Register;
    L.Reg = R;
    return L;
  }
  static Location inMemory() { return Location(); }

  bool isRegister() const { return K == Kind::Register; }
  bool isMemory() const { return K == Kind::Memory; }
};

/// §3's three cost components plus shuffle cost, in weighted overhead
/// operations (expected dynamic loads/stores/moves introduced by the
/// allocator).
struct CostBreakdown {
  double Spill = 0.0;
  double CallerSave = 0.0;
  double CalleeSave = 0.0;
  double Shuffle = 0.0;

  double total() const { return Spill + CallerSave + CalleeSave + Shuffle; }

  /// Exact (bitwise-value) comparison; the serving stack's bit-identity
  /// contract asserts equality of costs across the wire.
  bool operator==(const CostBreakdown &Other) const = default;

  CostBreakdown &operator+=(const CostBreakdown &Other) {
    Spill += Other.Spill;
    CallerSave += Other.CallerSave;
    CalleeSave += Other.CalleeSave;
    Shuffle += Other.Shuffle;
    return *this;
  }
};

/// Result of allocating one function.
struct FunctionAllocation {
  /// Final storage location of every virtual register that ever existed in
  /// the function (including spill temporaries), indexed by vreg id. An
  /// empty entry is a register no live range held (see locationOf).
  std::vector<std::optional<Location>> VRegLocations;

  CostBreakdown Costs;

  /// Soundness-verifier findings, populated only under
  /// AllocatorOptions::VerifyReportOnly (the default verifier path aborts
  /// instead). Empty means the allocation verified clean.
  std::vector<std::string> VerifyErrors;

  unsigned Rounds = 0;          ///< Spill-and-retry iterations used.
  unsigned SpilledRanges = 0;   ///< Ranges spilled because coloring failed.
  unsigned VoluntarySpills = 0; ///< Storage-class-analysis spill decisions.
  unsigned CoalescedMoves = 0;  ///< Copies removed by the coalescer.
  unsigned CalleeRegsPaid = 0;  ///< Callee-save registers saved/restored.

  /// Where \p R ended up; memory for a register without a recorded
  /// location.
  Location locationOf(VirtReg R) const {
    if (R.Id < VRegLocations.size() && VRegLocations[R.Id])
      return *VRegLocations[R.Id];
    return Location::inMemory();
  }
};

/// Thrown by an allocation whose register configuration cannot hold some
/// instruction's operands at once (an unspillable reload temporary found
/// no register). The input is at fault, not the allocator: callers answer
/// it with a diagnostic.
class UncolorableError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Result of allocating a whole module.
struct ModuleAllocationResult {
  std::unordered_map<const Function *, FunctionAllocation> PerFunction;
  CostBreakdown Totals;
};

} // namespace ccra

#endif // CCRA_REGALLOC_ALLOCATIONRESULT_H
