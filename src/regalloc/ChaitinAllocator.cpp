//===- regalloc/ChaitinAllocator.cpp --------------------------------------===//

#include "regalloc/ChaitinAllocator.h"

#include "regalloc/Simplifier.h"
#include "support/Telemetry.h"

#include <cassert>

using namespace ccra;

void ChaitinAllocator::runRound(AllocationContext &Ctx, RoundResult &RR) {
  preColorOrdering(Ctx);

  Simplifier::KeyFn Key;
  if (hasSimplifyKey())
    Key = [this, &Ctx](const LiveRange &LR) { return simplifyKey(Ctx, LR); };
  SimplifyResult Simp;
  {
    Telemetry::ScopedTimer Timer(Ctx.T, telemetry::AllocSimplifyPhase);
    Simp = Simplifier::run(Ctx, Opts.Optimistic, Key);
  }

  AssignmentState State(Ctx);
  for (PhysReg Reg : Ctx.RefusedCalleeRegs)
    State.lockRegister(Reg);
  for (unsigned Node : Simp.SpilledNodes)
    State.spill(Node);

  // Pop the color stack: top of stack (back) is colored first.
  for (auto It = Simp.Stack.rbegin(), E = Simp.Stack.rend(); It != E; ++It) {
    unsigned Node = *It;
    const LiveRange &LR = Ctx.LRS.range(Node);
    PhysReg Reg = State.pickRegister(Node, preference(Ctx, Node, LR, State));
    if (!Reg.isValid()) {
      // Only nodes pushed while simplification was blocked can get here
      // (Chaitin's guarantee covers the rest).
      assert(Simp.PushedOptimistically[Node] &&
             "guaranteed-colorable node found no color");
      if (LR.NoSpill) {
        State.assignStolen(Node);
      } else {
        State.spill(Node);
      }
      continue;
    }
    if (!LR.NoSpill && shouldSpillInstead(Ctx, LR, Reg, State)) {
      State.spill(Node);
      ++RR.VoluntarySpills;
      continue;
    }
    State.assign(Node, Reg);
  }

  postAssignment(Ctx, State, RR);
  RR.Assignment = State.takeAssignment();
}
