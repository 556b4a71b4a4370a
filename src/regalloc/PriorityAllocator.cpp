//===- regalloc/PriorityAllocator.cpp -------------------------------------===//

#include "regalloc/PriorityAllocator.h"

#include "regalloc/AssignmentState.h"

#include <algorithm>
#include <limits>

using namespace ccra;

double PriorityAllocator::priorityOf(const LiveRange &LR) {
  if (LR.NoSpill)
    return std::numeric_limits<double>::infinity();
  double Best = std::max(LR.benefitCaller(), LR.benefitCallee());
  return Best / static_cast<double>(std::max(LR.NumBlocks, 1u));
}

void PriorityAllocator::runRound(AllocationContext &Ctx, RoundResult &RR) {
  const LiveRangeSet &LRS = Ctx.LRS;
  const InterferenceGraph &IG = Ctx.IG;
  unsigned NumNodes = IG.numNodes();

  std::vector<double> Priority(NumNodes);
  for (unsigned I = 0; I < NumNodes; ++I)
    Priority[I] = priorityOf(LRS.range(I));

  // Ascending priority comparison with id tie-break (stack is built bottom
  // to top, so ascending pushes leave the highest priority on top).
  auto ByAscendingPriority = [&](unsigned A, unsigned B) {
    if (Priority[A] != Priority[B])
      return Priority[A] < Priority[B];
    return A < B;
  };

  std::vector<unsigned> Stack;
  Stack.reserve(NumNodes);

  if (Opts.Ordering == PriorityOrdering::FullSort) {
    for (unsigned I = 0; I < NumNodes; ++I)
      Stack.push_back(I);
    std::sort(Stack.begin(), Stack.end(), ByAscendingPriority);
  } else {
    // Peel unconstrained nodes (cascading, like simplification), then push
    // the remaining constrained nodes in ascending priority order.
    std::vector<unsigned> Degree(NumNodes);
    std::vector<bool> Active(NumNodes, true);
    for (unsigned I = 0; I < NumNodes; ++I)
      Degree[I] = IG.degree(I);

    std::vector<unsigned> Peeled;
    bool SortPeels = Opts.Ordering == PriorityOrdering::SortUnconstrained;
    bool Progress = true;
    while (Progress) {
      Progress = false;
      int Pick = -1;
      for (unsigned I = 0; I < NumNodes; ++I) {
        if (!Active[I] || Degree[I] >= Ctx.MD.numRegs(LRS.range(I).Bank))
          continue;
        if (Pick < 0 ||
            (SortPeels
                 ? ByAscendingPriority(I, static_cast<unsigned>(Pick))
                 : I < static_cast<unsigned>(Pick)))
          Pick = static_cast<int>(I);
      }
      if (Pick >= 0) {
        unsigned Node = static_cast<unsigned>(Pick);
        Peeled.push_back(Node);
        Active[Node] = false;
        for (unsigned Neighbor : IG.neighbors(Node))
          if (Active[Neighbor])
            --Degree[Neighbor];
        Progress = true;
      }
    }
    std::vector<unsigned> Constrained;
    for (unsigned I = 0; I < NumNodes; ++I)
      if (Active[I])
        Constrained.push_back(I);
    std::sort(Constrained.begin(), Constrained.end(), ByAscendingPriority);

    // Unconstrained nodes can always find a color, so they go to the
    // bottom of the stack (colored last); constrained nodes sit above them
    // in priority order.
    Stack = std::move(Peeled);
    Stack.insert(Stack.end(), Constrained.begin(), Constrained.end());
  }

  AssignmentState State(Ctx);
  for (auto It = Stack.rbegin(), E = Stack.rend(); It != E; ++It) {
    unsigned Node = *It;
    const LiveRange &LR = LRS.range(Node);
    // Chow's cost-driven decision: a live range whose best benefit is
    // negative is cheaper in memory than in any register.
    if (!LR.NoSpill &&
        std::max(LR.benefitCaller(), LR.benefitCallee()) < 0.0) {
      State.spill(Node);
      ++RR.VoluntarySpills;
      continue;
    }
    RegKindPref Pref = LR.benefitCallee() > LR.benefitCaller()
                           ? RegKindPref::Callee
                           : RegKindPref::Caller;
    PhysReg Reg = State.pickRegister(Node, Pref);
    if (Reg.isValid()) {
      State.assign(Node, Reg);
      continue;
    }
    if (LR.NoSpill) {
      State.assignStolen(Node);
      continue;
    }
    State.spill(Node); // Out of colors: spill, never split.
  }
  RR.Assignment = State.takeAssignment();
}
