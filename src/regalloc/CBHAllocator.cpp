//===- regalloc/CBHAllocator.cpp ------------------------------------------===//

#include "regalloc/CBHAllocator.h"

#include "regalloc/AssignmentState.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <queue>

using namespace ccra;

CBHSimplifyResult CBHAllocator::simplify(const AllocationContext &Ctx) {
  const LiveRangeSet &LRS = Ctx.LRS;
  const InterferenceGraph &IG = Ctx.IG;
  const MachineDescription &MD = Ctx.MD;
  unsigned NumNodes = IG.numNodes();

  CBHSimplifyResult Result;
  Result.PushedBlocked.assign(NumNodes, false);
  Result.Stack.reserve(NumNodes);

  // Effective degrees include the pseudo neighbors: every callee-save
  // register live range of the node's bank (they span the whole function),
  // and — for call-crossing ranges — every caller-save register.
  std::vector<unsigned> Degree(NumNodes), Limit(NumNodes);
  std::vector<bool> Active(NumNodes, true);
  unsigned ActivePerBank[NumRegBanks] = {0, 0};
  unsigned LockedCalleeCount[NumRegBanks];
  for (unsigned B = 0; B < NumRegBanks; ++B)
    LockedCalleeCount[B] = MD.calleeCount(static_cast<RegBank>(B));

  // Eligible nodes (effective degree below the bank's register count),
  // lowest index on top. A node is pushed once, when it becomes eligible,
  // and stays active until popped: the blocked paths below run only on an
  // empty heap.
  std::priority_queue<unsigned, std::vector<unsigned>, std::greater<unsigned>>
      Eligible;
  for (unsigned I = 0; I < NumNodes; ++I) {
    const LiveRange &LR = LRS.range(I);
    Degree[I] = IG.degree(I) + MD.calleeCount(LR.Bank) +
                (LR.ContainsCall ? MD.callerCount(LR.Bank) : 0);
    Limit[I] = MD.numRegs(LR.Bank);
    ++ActivePerBank[static_cast<unsigned>(LR.Bank)];
    if (Degree[I] < Limit[I])
      Eligible.push(I);
  }

  double CalleeNodeCost = 2.0 * Ctx.EntryFreq;

  // An active node's degree counts every pseudo and active neighbor it
  // loses, so it never underflows.
  auto LowerDegree = [&](unsigned Node) {
    if (Degree[Node]-- == Limit[Node])
      Eligible.push(Node);
  };
  auto Deactivate = [&](unsigned Node) {
    Active[Node] = false;
    --ActivePerBank[static_cast<unsigned>(LRS.range(Node).Bank)];
    for (unsigned Neighbor : IG.neighbors(Node))
      if (Active[Neighbor])
        LowerDegree(Neighbor);
  };
  auto UnlockCallee = [&](RegBank Bank) {
    unsigned BankIdx = static_cast<unsigned>(Bank);
    assert(LockedCalleeCount[BankIdx] > 0 && "no locked register to unlock");
    --LockedCalleeCount[BankIdx];
    ++Result.Unlocked[BankIdx];
    for (unsigned I = 0; I < NumNodes; ++I)
      if (Active[I] && LRS.range(I).Bank == Bank)
        LowerDegree(I);
  };

  unsigned Remaining = NumNodes;
  while (Remaining > 0) {
    if (!Eligible.empty()) {
      unsigned Best = Eligible.top();
      Eligible.pop();
      assert(Active[Best] && "eligible node left the graph before its pop");
      Result.Stack.push_back(Best);
      Deactivate(Best);
      --Remaining;
      continue;
    }

    // Blocked: cheapest among spillable ordinary ranges and the locked
    // callee-save-register live ranges.
    int Victim = -1;
    double VictimMetric = std::numeric_limits<double>::infinity();
    for (unsigned I = 0; I < NumNodes; ++I) {
      if (!Active[I] || LRS.range(I).NoSpill)
        continue;
      double Metric = LRS.range(I).spillCost() /
                      static_cast<double>(std::max(Degree[I], 1u));
      if (Victim < 0 || Metric < VictimMetric) {
        Victim = static_cast<int>(I);
        VictimMetric = Metric;
      }
    }
    int CalleeBank = -1;
    double CalleeMetric = std::numeric_limits<double>::infinity();
    for (unsigned B = 0; B < NumRegBanks; ++B) {
      if (LockedCalleeCount[B] == 0 || ActivePerBank[B] == 0)
        continue;
      // The callee-save-register live range conflicts with every active
      // ordinary range of its bank; that is its degree.
      double Metric =
          CalleeNodeCost / static_cast<double>(std::max(ActivePerBank[B], 1u));
      if (Metric < CalleeMetric) {
        CalleeBank = static_cast<int>(B);
        CalleeMetric = Metric;
      }
    }

    if (CalleeBank >= 0 && (Victim < 0 || CalleeMetric <= VictimMetric)) {
      UnlockCallee(static_cast<RegBank>(CalleeBank));
      continue;
    }
    if (Victim >= 0) {
      Result.SpilledNodes.push_back(static_cast<unsigned>(Victim));
      Deactivate(static_cast<unsigned>(Victim));
      --Remaining;
      continue;
    }
    // Only unspillable temporaries remain and every callee-save register
    // is already unlocked: push blocked and let the steal fallback cope.
    unsigned BestDegree = ~0u;
    unsigned Pick = 0;
    for (unsigned I = 0; I < NumNodes; ++I)
      if (Active[I] && Degree[I] < BestDegree) {
        Pick = I;
        BestDegree = Degree[I];
      }
    Result.Stack.push_back(Pick);
    Result.PushedBlocked[Pick] = true;
    Deactivate(Pick);
    --Remaining;
  }
  return Result;
}

void CBHAllocator::runRound(AllocationContext &Ctx, RoundResult &RR) {
  const LiveRangeSet &LRS = Ctx.LRS;
  const MachineDescription &MD = Ctx.MD;
  CBHSimplifyResult Simp = simplify(Ctx);

  // --- Color assignment ---------------------------------------------------
  AssignmentState State(Ctx);
  RR.PayUnusedCallee = true;
  for (unsigned B = 0; B < NumRegBanks; ++B) {
    RegBank Bank = static_cast<RegBank>(B);
    for (unsigned J = 0; J < MD.calleeCount(Bank); ++J) {
      if (J >= Simp.Unlocked[B])
        State.lockRegister(MD.calleeSaveReg(Bank, J));
      else
        RR.ForcedCalleePaid.push_back(MD.calleeSaveReg(Bank, J));
    }
  }
  for (unsigned Node : Simp.SpilledNodes)
    State.spill(Node);
  for (unsigned I = 0; I < LRS.numRanges(); ++I)
    if (LRS.range(I).ContainsCall)
      State.restrictToCalleeSave(I);

  for (auto It = Simp.Stack.rbegin(), E = Simp.Stack.rend(); It != E; ++It) {
    unsigned Node = *It;
    const LiveRange &LR = LRS.range(Node);
    // Crossing ranges may only take callee-save registers (the restriction
    // filters caller-save candidates); non-crossing ranges prefer
    // caller-save, which is free.
    RegKindPref Pref =
        LR.ContainsCall ? RegKindPref::Callee : RegKindPref::Caller;
    PhysReg Reg = State.pickRegister(Node, Pref);
    if (Reg.isValid()) {
      State.assign(Node, Reg);
      continue;
    }
    assert(Simp.PushedBlocked[Node] &&
           "CBH: guaranteed-colorable node found no color");
    if (LR.NoSpill) {
      State.assignStolen(Node);
    } else {
      State.spill(Node);
    }
  }
  RR.Assignment = State.takeAssignment();
}
