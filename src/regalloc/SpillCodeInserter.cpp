//===- regalloc/SpillCodeInserter.cpp -------------------------------------===//

#include "regalloc/SpillCodeInserter.h"

#include "analysis/Liveness.h"

#include <cassert>

using namespace ccra;

SpillCodeInserter::Stats
SpillCodeInserter::run(Function &F,
                       const std::vector<std::vector<VirtReg>> &SpilledClasses,
                       Liveness *LV) {
  Stats S;
  S.RangesSpilled = static_cast<unsigned>(SpilledClasses.size());
  if (SpilledClasses.empty())
    return S;

  // Map each member register to its class index, and give each class a
  // stack slot.
  std::vector<int> ClassOf(F.numVRegs(), -1);
  std::vector<unsigned> SlotOf(SpilledClasses.size());
  for (size_t C = 0; C < SpilledClasses.size(); ++C) {
    SlotOf[C] = F.createSpillSlot();
    for (VirtReg R : SpilledClasses[C]) {
      assert(ClassOf[R.Id] == -1 && "register spilled twice");
      ClassOf[R.Id] = static_cast<int>(C);
    }
  }

  for (const auto &BB : F.blocks()) {
    auto &Insts = BB->instructions();
    std::vector<Instruction> Out;
    Out.reserve(Insts.size());
    for (Instruction &I : Insts) {
      // Reload each distinct spilled class used by this instruction into
      // one fresh temporary.
      int UsedClass[4];
      VirtReg UsedTemp[4];
      unsigned NumUsed = 0;
      for (VirtReg &U : I.Uses) {
        int C = ClassOf[U.Id];
        if (C < 0)
          continue;
        VirtReg Temp;
        for (unsigned K = 0; K < NumUsed; ++K)
          if (UsedClass[K] == C)
            Temp = UsedTemp[K];
        if (!Temp.isValid()) {
          Temp = F.createSpillTemp(F.vregBank(U));
          assert(NumUsed < 4 && "instruction uses too many spilled classes");
          UsedClass[NumUsed] = C;
          UsedTemp[NumUsed] = Temp;
          ++NumUsed;
          Instruction Load(Opcode::SpillLoad);
          Load.Defs.push_back(Temp);
          Load.SpillSlot = SlotOf[C];
          Load.Overhead = OverheadKind::Spill;
          Out.push_back(std::move(Load));
          ++S.LoadsInserted;
        }
        U = Temp;
      }

      // Rewrite spilled defs to fresh temporaries and store them right
      // after the instruction.
      std::vector<std::pair<VirtReg, unsigned>> StoresAfter;
      for (VirtReg &D : I.Defs) {
        int C = ClassOf[D.Id];
        if (C < 0)
          continue;
        VirtReg Temp = F.createSpillTemp(F.vregBank(D));
        StoresAfter.push_back({Temp, SlotOf[C]});
        D = Temp;
      }
      assert((StoresAfter.empty() || !I.isTerminator()) &&
             "terminators define no registers");
      Out.push_back(std::move(I));
      for (auto [Temp, Slot] : StoresAfter) {
        Instruction Store(Opcode::SpillStore);
        Store.Uses.push_back(Temp);
        Store.SpillSlot = Slot;
        Store.Overhead = OverheadKind::Spill;
        Out.push_back(std::move(Store));
        ++S.StoresInserted;
      }
    }
    Insts = std::move(Out);
  }
  if (LV) {
    for (const auto &Members : SpilledClasses)
      for (VirtReg R : Members)
        LV->eraseRegister(R);
    LV->growUniverse(F.numVRegs());
  }
  return S;
}
