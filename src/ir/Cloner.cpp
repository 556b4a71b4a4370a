//===- ir/Cloner.cpp ------------------------------------------------------===//

#include "ir/Cloner.h"

#include <cassert>
#include <unordered_map>
#include <vector>

using namespace ccra;

std::unique_ptr<Module> ccra::cloneModule(const Module &M) {
  auto Clone = std::make_unique<Module>(M.getName());

  // First create every function so call targets can be remapped.
  std::unordered_map<const Function *, Function *> FuncMap;
  FuncMap.reserve(M.functions().size());
  for (const auto &F : M.functions())
    FuncMap[F.get()] = Clone->createFunction(F->getName());
  if (M.getEntryFunction())
    Clone->setEntryFunction(FuncMap.at(M.getEntryFunction()));

  // Every grid point and served request clones its module, so the copy is
  // sized up front: each block's instruction vector is allocated once, and
  // blocks are remapped through their ids instead of a hash map.
  std::vector<BasicBlock *> BlockById;
  for (const auto &F : M.functions()) {
    Function *NewF = FuncMap.at(F.get());

    // Recreate the virtual-register table in order.
    for (unsigned V = 0; V < F->numVRegs(); ++V) {
      VirtReg R(V);
      VirtReg NewR = F->isSpillTemp(R)
                         ? NewF->createSpillTemp(F->vregBank(R))
                         : NewF->createVReg(F->vregBank(R));
      assert(NewR.Id == V && "vreg numbering must be preserved");
      (void)NewR;
    }
    for (unsigned S = 0; S < F->numSpillSlots(); ++S)
      NewF->createSpillSlot();

    // Blocks, then instructions and edges.
    BlockById.clear();
    for (const auto &BB : F->blocks()) {
      if (BB->getId() >= BlockById.size())
        BlockById.resize(BB->getId() + 1, nullptr);
      assert(!BlockById[BB->getId()] && "duplicate block id");
      BlockById[BB->getId()] = NewF->createBlock(BB->getName());
    }
    for (const auto &BB : F->blocks()) {
      BasicBlock *NewBB = BlockById[BB->getId()];
      std::vector<Instruction> &Insts = NewBB->instructions();
      Insts.reserve(BB->instructions().size());
      for (const Instruction &I : BB->instructions()) {
        Instruction &NewI = Insts.emplace_back(I);
        if (NewI.Callee)
          NewI.Callee = FuncMap.at(NewI.Callee);
      }
      for (const CfgEdge &E : BB->successors())
        NewBB->addSuccessor(BlockById[E.Succ->getId()], E.Probability);
    }
  }
  return Clone;
}
