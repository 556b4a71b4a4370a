//===- regalloc/AssignmentState.cpp ---------------------------------------===//

#include "regalloc/AssignmentState.h"

#include "ir/Function.h"

#include <algorithm>
#include <cassert>

using namespace ccra;

AssignmentState::AssignmentState(const AllocationContext &Ctx) : Ctx(Ctx) {
  unsigned NumRanges = Ctx.LRS.numRanges();
  Assignment.assign(NumRanges, Location::inMemory());
  Decided.assign(NumRanges, false);
  CalleeOnly.assign(NumRanges, false);
  assert(Ctx.MD.config().fitsRegisterMasks() &&
         "register bank wider than a taken-register mask");
  unsigned Slots =
      Ctx.MD.numRegs(RegBank::Int) + Ctx.MD.numRegs(RegBank::Float);
  Locked.assign(Slots, false);
  Users.assign(Slots, {});
}

unsigned AssignmentState::regSlot(PhysReg Reg) const {
  assert(Reg.isValid() && Reg.Index < Ctx.MD.numRegs(Reg.Bank) &&
         "register outside the configured file");
  unsigned Base = Reg.Bank == RegBank::Int ? 0 : Ctx.MD.numRegs(RegBank::Int);
  return Base + Reg.Index;
}

void AssignmentState::restrictToCalleeSave(unsigned RangeId) {
  CalleeOnly[RangeId] = true;
}

void AssignmentState::lockRegister(PhysReg Reg) {
  Locked[regSlot(Reg)] = true;
}

bool AssignmentState::isForbidden(unsigned RangeId, PhysReg Reg) const {
  if (Locked[regSlot(Reg)])
    return true;
  if (CalleeOnly[RangeId] && Ctx.MD.isCallerSave(Reg))
    return true;
  return false;
}

std::uint64_t AssignmentState::takenMask(unsigned RangeId) const {
  std::uint64_t Taken = 0;
  for (unsigned Neighbor : Ctx.IG.neighbors(RangeId)) {
    const Location &Loc = Assignment[Neighbor];
    if (Decided[Neighbor] && Loc.isRegister())
      Taken |= std::uint64_t(1) << Loc.Reg.Index;
  }
  return Taken;
}

PhysReg AssignmentState::pickRegister(unsigned RangeId, RegKindPref Pref,
                                      bool AllowOtherKind) const {
  RegBank Bank = Ctx.LRS.range(RangeId).Bank;
  const std::uint64_t Taken = takenMask(RangeId);
  auto Usable = [&](PhysReg Reg) {
    return !((Taken >> Reg.Index) & 1) && !isForbidden(RangeId, Reg);
  };

  auto TryCaller = [&]() -> PhysReg {
    for (unsigned I = 0; I < Ctx.MD.callerCount(Bank); ++I) {
      PhysReg Reg = Ctx.MD.callerSaveReg(Bank, I);
      if (Usable(Reg))
        return Reg;
    }
    return PhysReg();
  };
  auto TryCallee = [&]() -> PhysReg {
    // Already-used callee-save registers first: their save/restore is
    // already paid, so reuse is free.
    for (unsigned I = 0; I < Ctx.MD.calleeCount(Bank); ++I) {
      PhysReg Reg = Ctx.MD.calleeSaveReg(Bank, I);
      if (!Users[regSlot(Reg)].empty() && Usable(Reg))
        return Reg;
    }
    for (unsigned I = 0; I < Ctx.MD.calleeCount(Bank); ++I) {
      PhysReg Reg = Ctx.MD.calleeSaveReg(Bank, I);
      if (Users[regSlot(Reg)].empty() && Usable(Reg))
        return Reg;
    }
    return PhysReg();
  };

  PhysReg Reg = Pref == RegKindPref::Caller ? TryCaller() : TryCallee();
  if (!Reg.isValid() && AllowOtherKind)
    Reg = Pref == RegKindPref::Caller ? TryCallee() : TryCaller();
  return Reg;
}

void AssignmentState::assign(unsigned RangeId, PhysReg Reg) {
  assert(!Decided[RangeId] && "live range already decided");
  Assignment[RangeId] = Location::inRegister(Reg);
  Decided[RangeId] = true;
  Users[regSlot(Reg)].push_back(RangeId);
}

void AssignmentState::unassign(unsigned RangeId) {
  assert(Decided[RangeId] && Assignment[RangeId].isRegister() &&
         "unassign of unassigned range");
  auto &List = Users[regSlot(Assignment[RangeId].Reg)];
  List.erase(std::find(List.begin(), List.end(), RangeId));
  Assignment[RangeId] = Location::inMemory();
  Decided[RangeId] = false;
}

void AssignmentState::spill(unsigned RangeId) {
  assert(!Decided[RangeId] && "live range already decided");
  Assignment[RangeId] = Location::inMemory();
  Decided[RangeId] = true;
}

const std::vector<unsigned> &AssignmentState::usersOf(PhysReg Reg) const {
  return Users[regSlot(Reg)];
}

bool AssignmentState::hasReusableCalleeReg(unsigned RangeId) const {
  RegBank Bank = Ctx.LRS.range(RangeId).Bank;
  const std::uint64_t Taken = takenMask(RangeId);
  for (unsigned I = 0; I < Ctx.MD.calleeCount(Bank); ++I) {
    PhysReg Reg = Ctx.MD.calleeSaveReg(Bank, I);
    if (!Users[regSlot(Reg)].empty() && !((Taken >> Reg.Index) & 1) &&
        !isForbidden(RangeId, Reg))
      return true;
  }
  return false;
}

PhysReg AssignmentState::stealRegisterFor(unsigned RangeId) {
  const LiveRange &LR = Ctx.LRS.range(RangeId);

  // How many interfering neighbors currently hold each register: stealing
  // only helps when the victim is the *only* neighbor holding it.
  std::vector<unsigned> HeldBy(Ctx.MD.numRegs(LR.Bank), 0);
  for (unsigned Neighbor : Ctx.IG.neighbors(RangeId))
    if (Decided[Neighbor] && Assignment[Neighbor].isRegister())
      ++HeldBy[Assignment[Neighbor].Reg.Index];

  int BestNeighbor = -1;
  double BestCost = LiveRange::InfiniteSpillCost;
  for (unsigned Neighbor : Ctx.IG.neighbors(RangeId)) {
    if (!Decided[Neighbor] || !Assignment[Neighbor].isRegister())
      continue;
    const LiveRange &NLR = Ctx.LRS.range(Neighbor);
    if (NLR.NoSpill || NLR.Bank != LR.Bank)
      continue;
    if (isForbidden(RangeId, Assignment[Neighbor].Reg))
      continue;
    if (HeldBy[Assignment[Neighbor].Reg.Index] != 1)
      continue;
    if (BestNeighbor < 0 || NLR.spillCost() < BestCost) {
      BestNeighbor = static_cast<int>(Neighbor);
      BestCost = NLR.spillCost();
    }
  }
  if (BestNeighbor < 0)
    return moveHoldersFor(RangeId);
  PhysReg Freed = Assignment[BestNeighbor].Reg;
  unassign(static_cast<unsigned>(BestNeighbor));
  spill(static_cast<unsigned>(BestNeighbor));
  return Freed;
}

void AssignmentState::assignStolen(unsigned RangeId) {
  assert(Ctx.LRS.range(RangeId).NoSpill && "only reload temps steal");
  PhysReg Reg = stealRegisterFor(RangeId);
  if (!Reg.isValid())
    throw UncolorableError(
        "@" + Ctx.F.getName() + ": register config " +
        Ctx.MD.config().label() + " cannot color an unspillable " +
        regBankName(Ctx.LRS.range(RangeId).Bank) +
        " reload temporary (too few registers for one instruction's "
        "operands)");
  assign(RangeId, Reg);
}

PhysReg AssignmentState::moveHoldersFor(unsigned RangeId) {
  RegBank Bank = Ctx.LRS.range(RangeId).Bank;
  for (unsigned Index = 0; Index < Ctx.MD.numRegs(Bank); ++Index) {
    PhysReg Freed(Bank, Index);
    if (isForbidden(RangeId, Freed))
      continue;
    std::vector<unsigned> Holders;
    for (unsigned Neighbor : Ctx.IG.neighbors(RangeId))
      if (Decided[Neighbor] && Assignment[Neighbor].isRegister() &&
          Assignment[Neighbor].Reg == Freed)
        Holders.push_back(Neighbor);
    // With RangeId on Freed, each holder may take any register but Freed.
    for (unsigned Holder : Holders)
      unassign(Holder);
    assign(RangeId, Freed);
    std::vector<PhysReg> Moved;
    for (unsigned Holder : Holders) {
      const LiveRange &HLR = Ctx.LRS.range(Holder);
      RegKindPref Pref = HLR.benefitCallee() > HLR.benefitCaller()
                             ? RegKindPref::Callee
                             : RegKindPref::Caller;
      PhysReg Reg = pickRegister(Holder, Pref);
      if (!Reg.isValid())
        break;
      assign(Holder, Reg);
      Moved.push_back(Reg);
    }
    unassign(RangeId);
    if (Moved.size() == Holders.size())
      return Freed;
    for (std::size_t I = 0; I < Holders.size(); ++I) {
      if (I < Moved.size())
        unassign(Holders[I]);
      assign(Holders[I], Freed);
    }
  }
  return PhysReg();
}
