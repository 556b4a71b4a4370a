//===- ir/Verifier.cpp ----------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/IRPrinter.h"

#include <vector>

using namespace ccra;

namespace {

/// A block's edge probabilities may sum short of 1 by up to this much: the
/// lost mass leaks out of the function, which only helps the block
/// frequency solve (analysis/Frequency.h).
constexpr double ProbabilityShortfall = 1e-6;
/// ...but exceed 1 by no more than rounding: excess mass can cancel an
/// exit and make the frequency system singular.
constexpr double ProbabilityExcess = 1e-12;
/// The least probability an edge needs to count as a way out of a cycle.
/// A smaller exit vanishes when the solve subtracts the cycle's mass from
/// 1, leaving the system singular.
constexpr double MinExitProbability = 1e-9;

class FunctionVerifier {
public:
  FunctionVerifier(const Function &F, std::vector<std::string> *Errors)
      : F(F), Errors(Errors) {}

  bool run();

private:
  void error(const std::string &Message) {
    Failed = true;
    if (Errors)
      Errors->push_back("function @" + F.getName() + ": " + Message);
  }

  void checkBlock(const BasicBlock &BB);
  void checkInstruction(const BasicBlock &BB, const Instruction &I,
                        bool IsLast);
  void checkOperandSignature(const BasicBlock &BB, const Instruction &I);
  bool checkRegs(const RegList &Regs, const BasicBlock &BB,
                 const Instruction &I);
  void expectBank(const Instruction &I, VirtReg R, RegBank Bank,
                  const char *Role);
  void checkDefsExistForUses();
  void checkPredConsistency();
  void checkEveryBlockCanExit();

  const Function &F;
  std::vector<std::string> *Errors;
  bool Failed = false;
};

} // namespace

bool FunctionVerifier::run() {
  if (F.isDeclaration())
    return true;
  if (!F.getEntryBlock())
    error("no entry block");
  for (const auto &BB : F.blocks())
    checkBlock(*BB);
  checkDefsExistForUses();
  checkPredConsistency();
  if (!Failed)
    checkEveryBlockCanExit();
  return !Failed;
}

void FunctionVerifier::checkBlock(const BasicBlock &BB) {
  const auto &Insts = BB.instructions();
  if (Insts.empty() || !Insts.back().isTerminator()) {
    error("block " + BB.getName() + " is not terminated");
    return;
  }
  for (size_t Idx = 0; Idx < Insts.size(); ++Idx)
    checkInstruction(BB, Insts[Idx], Idx + 1 == Insts.size());

  // Terminator / successor-edge agreement.
  const Instruction &Term = Insts.back();
  size_t ExpectedSuccs = 0;
  switch (Term.Op) {
  case Opcode::Br:
    ExpectedSuccs = 1;
    break;
  case Opcode::CondBr:
    ExpectedSuccs = 2;
    break;
  case Opcode::Ret:
    ExpectedSuccs = 0;
    break;
  default:
    error("block " + BB.getName() + " has non-terminator last instruction");
    return;
  }
  if (BB.successors().size() != ExpectedSuccs) {
    error("block " + BB.getName() + " terminator expects " +
          std::to_string(ExpectedSuccs) + " successors, has " +
          std::to_string(BB.successors().size()));
    return;
  }
  if (!BB.successors().empty()) {
    double Total = 0.0;
    for (const CfgEdge &E : BB.successors()) {
      if (E.Probability < 0.0 || E.Probability > 1.0)
        error("block " + BB.getName() + " edge probability out of [0,1]");
      if (!E.Succ || E.Succ->getParent() != &F)
        error("block " + BB.getName() + " has foreign successor");
      Total += E.Probability;
    }
    if (Total < 1.0 - ProbabilityShortfall || Total > 1.0 + ProbabilityExcess)
      error("block " + BB.getName() + " edge probabilities sum to " +
            std::to_string(Total));
  }
}

void FunctionVerifier::checkInstruction(const BasicBlock &BB,
                                        const Instruction &I, bool IsLast) {
  if (I.isTerminator() && !IsLast)
    error("terminator in the middle of block " + BB.getName());
  if (!checkRegs(I.Defs, BB, I) || !checkRegs(I.Uses, BB, I))
    return;
  checkOperandSignature(BB, I);
}

bool FunctionVerifier::checkRegs(const RegList &Regs,
                                 const BasicBlock &BB, const Instruction &I) {
  for (VirtReg R : Regs) {
    if (!R.isValid() || R.Id >= F.numVRegs()) {
      error("instruction '" + std::string(I.info().Name) + "' in block " +
            BB.getName() + " references out-of-range register");
      return false;
    }
  }
  return true;
}

void FunctionVerifier::expectBank(const Instruction &I, VirtReg R,
                                  RegBank Bank, const char *Role) {
  if (F.vregBank(R) != Bank)
    error(std::string("'") + I.info().Name + "' " + Role + " must be " +
          regBankName(Bank) + ", got " + formatVReg(F, R));
}

void FunctionVerifier::checkOperandSignature(const BasicBlock &BB,
                                             const Instruction &I) {
  auto RequireCounts = [&](size_t NumDefs, size_t NumUses) {
    if (I.Defs.size() != NumDefs || I.Uses.size() != NumUses) {
      error(std::string("'") + I.info().Name + "' in block " + BB.getName() +
            " has wrong operand counts");
      return false;
    }
    return true;
  };

  switch (I.Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Cmp:
    if (RequireCounts(1, 2)) {
      expectBank(I, I.Defs[0], RegBank::Int, "result");
      expectBank(I, I.Uses[0], RegBank::Int, "operand");
      expectBank(I, I.Uses[1], RegBank::Int, "operand");
    }
    break;
  case Opcode::LoadImm:
    if (RequireCounts(1, 0))
      expectBank(I, I.Defs[0], RegBank::Int, "result");
    break;
  case Opcode::FLoadImm:
    if (RequireCounts(1, 0))
      expectBank(I, I.Defs[0], RegBank::Float, "result");
    break;
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
    if (RequireCounts(1, 2)) {
      expectBank(I, I.Defs[0], RegBank::Float, "result");
      expectBank(I, I.Uses[0], RegBank::Float, "operand");
      expectBank(I, I.Uses[1], RegBank::Float, "operand");
    }
    break;
  case Opcode::FCmp:
    if (RequireCounts(1, 2)) {
      expectBank(I, I.Defs[0], RegBank::Int, "result");
      expectBank(I, I.Uses[0], RegBank::Float, "operand");
      expectBank(I, I.Uses[1], RegBank::Float, "operand");
    }
    break;
  case Opcode::CvtIntToFloat:
    if (RequireCounts(1, 1)) {
      expectBank(I, I.Defs[0], RegBank::Float, "result");
      expectBank(I, I.Uses[0], RegBank::Int, "operand");
    }
    break;
  case Opcode::CvtFloatToInt:
    if (RequireCounts(1, 1)) {
      expectBank(I, I.Defs[0], RegBank::Int, "result");
      expectBank(I, I.Uses[0], RegBank::Float, "operand");
    }
    break;
  case Opcode::Load:
    if (RequireCounts(1, 1)) {
      expectBank(I, I.Defs[0], RegBank::Int, "result");
      expectBank(I, I.Uses[0], RegBank::Int, "address");
    }
    break;
  case Opcode::FLoad:
    if (RequireCounts(1, 1)) {
      expectBank(I, I.Defs[0], RegBank::Float, "result");
      expectBank(I, I.Uses[0], RegBank::Int, "address");
    }
    break;
  case Opcode::Store:
    if (RequireCounts(0, 2)) {
      expectBank(I, I.Uses[0], RegBank::Int, "value");
      expectBank(I, I.Uses[1], RegBank::Int, "address");
    }
    break;
  case Opcode::FStore:
    if (RequireCounts(0, 2)) {
      expectBank(I, I.Uses[0], RegBank::Float, "value");
      expectBank(I, I.Uses[1], RegBank::Int, "address");
    }
    break;
  case Opcode::Move:
    if (RequireCounts(1, 1)) {
      expectBank(I, I.Defs[0], RegBank::Int, "destination");
      expectBank(I, I.Uses[0], RegBank::Int, "source");
    }
    break;
  case Opcode::FMove:
    if (RequireCounts(1, 1)) {
      expectBank(I, I.Defs[0], RegBank::Float, "destination");
      expectBank(I, I.Uses[0], RegBank::Float, "source");
    }
    break;
  case Opcode::Br:
    RequireCounts(0, 0);
    break;
  case Opcode::CondBr:
    if (RequireCounts(0, 1))
      expectBank(I, I.Uses[0], RegBank::Int, "condition");
    break;
  case Opcode::Ret:
    if (I.Uses.size() > 1)
      error("'ret' returns at most one value");
    if (!I.Defs.empty())
      error("'ret' cannot define registers");
    break;
  case Opcode::Call:
    if (!I.Callee && I.CalleeName.empty())
      error("call without callee in block " + BB.getName());
    break;
  case Opcode::SpillLoad:
    if (RequireCounts(1, 0) && I.SpillSlot == ~0u)
      error("spill.load without slot");
    break;
  case Opcode::SpillStore:
    if (RequireCounts(0, 1) && I.SpillSlot == ~0u)
      error("spill.store without slot");
    break;
  case Opcode::Save:
  case Opcode::Restore:
    if (RequireCounts(0, 0) && !I.Phys.isValid())
      error("save/restore without physical register");
    break;
  case Opcode::ShuffleMove:
    if (RequireCounts(0, 0) && (!I.Phys.isValid() || !I.PhysSrc.isValid()))
      error("shuffle.move without physical registers");
    break;
  }
}

void FunctionVerifier::checkDefsExistForUses() {
  // checkRegs has already reported any id past numVRegs(); skip those.
  std::vector<bool> Defined(F.numVRegs(), false);
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      for (VirtReg R : I.Defs)
        if (R.Id < Defined.size())
          Defined[R.Id] = true;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      for (VirtReg R : I.Uses)
        if (R.Id < Defined.size() && !Defined[R.Id])
          error("register " + formatVReg(F, R) + " used but never defined");
}

void FunctionVerifier::checkPredConsistency() {
  // Every successor edge must be mirrored in the successor's pred list, and
  // vice versa (counting multiplicity).
  for (const auto &BB : F.blocks()) {
    for (const CfgEdge &E : BB->successors()) {
      size_t Mirrored = 0;
      for (const BasicBlock *Pred : E.Succ->predecessors())
        if (Pred == BB.get())
          ++Mirrored;
      size_t Outgoing = 0;
      for (const CfgEdge &E2 : BB->successors())
        if (E2.Succ == E.Succ)
          ++Outgoing;
      if (Mirrored != Outgoing)
        error("pred/succ lists disagree between " + BB->getName() + " and " +
              E.Succ->getName());
    }
  }
}

void FunctionVerifier::checkEveryBlockCanExit() {
  // A block reachable from the entry that cannot reach a 'ret' along
  // edges of at least MinExitProbability lies in a cycle no execution
  // leaves: the block-frequency equations are then singular. Walk back
  // from the returns over those edges, then forward from the entry over
  // every edge.
  std::vector<bool> CanExit(F.numBlocks(), false);
  std::vector<const BasicBlock *> Work;
  for (const auto &BB : F.blocks())
    if (BB->successors().empty()) {
      CanExit[BB->getId()] = true;
      Work.push_back(BB.get());
    }
  while (!Work.empty()) {
    const BasicBlock *BB = Work.back();
    Work.pop_back();
    for (const BasicBlock *Pred : BB->predecessors()) {
      if (CanExit[Pred->getId()])
        continue;
      for (const CfgEdge &E : Pred->successors())
        if (E.Succ == BB && E.Probability >= MinExitProbability) {
          CanExit[Pred->getId()] = true;
          Work.push_back(Pred);
          break;
        }
    }
  }

  std::vector<bool> Reached(F.numBlocks(), false);
  Reached[F.getEntryBlock()->getId()] = true;
  Work.push_back(F.getEntryBlock());
  while (!Work.empty()) {
    const BasicBlock *BB = Work.back();
    Work.pop_back();
    if (!CanExit[BB->getId()]) {
      error("block " + BB->getName() +
            " cannot reach a 'ret' along edges of probability >= 1e-9");
      return;
    }
    for (const CfgEdge &E : BB->successors())
      if (!Reached[E.Succ->getId()]) {
        Reached[E.Succ->getId()] = true;
        Work.push_back(E.Succ);
      }
  }
}

bool ccra::verifyFunction(const Function &F, std::vector<std::string> *Errors) {
  return FunctionVerifier(F, Errors).run();
}

bool ccra::verifyModule(const Module &M, std::vector<std::string> *Errors) {
  bool Ok = true;
  for (const auto &F : M.functions())
    Ok &= verifyFunction(*F, Errors);
  return Ok;
}
