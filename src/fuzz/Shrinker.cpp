//===- fuzz/Shrinker.cpp --------------------------------------------------===//

#include "fuzz/Shrinker.h"

#include "ir/Cloner.h"
#include "ir/Module.h"
#include "ir/Verifier.h"

#include <algorithm>
#include <cassert>

using namespace ccra;

namespace {

/// True when every block of every body can still reach a Ret. The IR
/// verifier does not require termination, but the frequency solver's
/// linear system is singular for an exit-free cycle — so a deletion that
/// strands a loop without exits (e.g. collapsing a latch's condbr onto its
/// back edge) must be rejected, not handed to the oracle lattice.
bool cfgTerminates(const Module &M) {
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    const size_t N = F->numBlocks();
    std::vector<char> ReachesExit(N, 0);
    std::vector<const BasicBlock *> Work;
    for (const auto &BB : F->blocks()) {
      const Instruction *Term = BB->getTerminator();
      if (Term && Term->Op == Opcode::Ret) {
        ReachesExit[BB->getId()] = 1;
        Work.push_back(BB.get());
      }
    }
    while (!Work.empty()) {
      const BasicBlock *BB = Work.back();
      Work.pop_back();
      for (const BasicBlock *Pred : BB->predecessors())
        if (!ReachesExit[Pred->getId()]) {
          ReachesExit[Pred->getId()] = 1;
          Work.push_back(Pred);
        }
    }
    for (const auto &BB : F->blocks())
      if (!ReachesExit[BB->getId()])
        return false;
  }
  return true;
}

unsigned countInstructions(const Module &M) {
  unsigned N = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      N += static_cast<unsigned>(BB->instructions().size());
  return N;
}

unsigned countBodies(const Module &M) {
  unsigned N = 0;
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      ++N;
  return N;
}

/// A candidate deletion: applied to a *clone* of the current module.
/// Returns false when inapplicable (nothing changed).
using Mutator = std::function<bool(Module &)>;

class GreedyShrinker {
public:
  GreedyShrinker(const Module &M, const ShrinkPredicate &StillFails,
                 const ShrinkOptions &Opts)
      : Current(cloneModule(M)), StillFails(StillFails), Opts(Opts) {}

  std::unique_ptr<Module> run(ShrinkStats *Stats) {
    ShrinkStats Local;
    Local.InstructionsBefore = countInstructions(*Current);
    Local.BodiesBefore = countBodies(*Current);

    bool Progress = true;
    while (Progress && !budgetExhausted()) {
      Progress = false;
      ++Local.Passes;
      Progress |= dropBodiesPass();
      Progress |= branchPass();
      Progress |= mergeBlocksPass();
      Progress |= instructionPass();
      Progress |= vregPass();
    }

    Local.Evaluations = Evaluations;
    Local.InstructionsAfter = countInstructions(*Current);
    Local.BodiesAfter = countBodies(*Current);
    if (Stats)
      *Stats = Local;
    return std::move(Current);
  }

private:
  bool budgetExhausted() const { return Evaluations >= Opts.MaxEvaluations; }

  /// Clone-mutate-check: keeps the mutation iff the smaller module is
  /// well-formed and still failing.
  bool tryAccept(const Mutator &Mut) {
    if (budgetExhausted())
      return false;
    std::unique_ptr<Module> Candidate = cloneModule(*Current);
    if (!Mut(*Candidate))
      return false;
    if (!verifyModule(*Candidate, nullptr) || !cfgTerminates(*Candidate))
      return false;
    ++Evaluations;
    if (!StillFails(*Candidate))
      return false;
    Current = std::move(Candidate);
    return true;
  }

  Function *fn(Module &M, unsigned FnIdx) {
    return M.functions()[FnIdx].get();
  }

  /// Pass 1: turn whole function bodies into external declarations. The
  /// entry function keeps its body (the frequency analysis needs an entry
  /// with code).
  bool dropBodiesPass() {
    bool Any = false;
    unsigned NumFns = static_cast<unsigned>(Current->functions().size());
    const Function *Entry = Current->getEntryFunction();
    for (unsigned FnIdx = 0; FnIdx < NumFns; ++FnIdx) {
      const Function *F = Current->functions()[FnIdx].get();
      if (F == Entry || F->isDeclaration())
        continue;
      Any |= tryAccept([&](Module &M) {
        fn(M, FnIdx)->dropBody();
        return true;
      });
    }
    return Any;
  }

  /// Pass 2: collapse branches — rewrite a condbr to an unconditional br
  /// (each side tried in turn) and erase whatever became unreachable.
  /// Acceptance renumbers blocks, so candidates are re-enumerated after
  /// every accepted rewrite.
  bool branchPass() {
    bool Any = false;
    bool Restart = true;
    while (Restart && !budgetExhausted()) {
      Restart = false;
      unsigned NumFns = static_cast<unsigned>(Current->functions().size());
      for (unsigned FnIdx = 0; FnIdx < NumFns && !Restart; ++FnIdx) {
        const Function *F = Current->functions()[FnIdx].get();
        // !Restart must short-circuit first: an accepted rewrite replaced
        // Current and freed F, so F->numBlocks() would read freed memory.
        for (unsigned BbIdx = 0; !Restart && BbIdx < F->numBlocks();
             ++BbIdx) {
          const Instruction *Term = F->blocks()[BbIdx]->getTerminator();
          if (!Term || Term->Op != Opcode::CondBr)
            continue;
          for (unsigned Keep = 0; Keep < 2 && !Restart; ++Keep) {
            if (tryAccept([&](Module &M) {
                  Function *MF = fn(M, FnIdx);
                  MF->blocks()[BbIdx]->rewriteCondBrToBr(Keep);
                  MF->eraseUnreachableBlocks();
                  return true;
                })) {
              Any = true;
              Restart = true;
            }
          }
        }
      }
    }
    return Any;
  }

  /// Pass 2b: collapse br-only chains — merge every straight-line block
  /// pair in one mutation (semantics-preserving, so usually accepted; it
  /// is what shrinks the long fall-through ladders the region generator
  /// leaves behind).
  bool mergeBlocksPass() {
    bool Any = false;
    unsigned NumFns = static_cast<unsigned>(Current->functions().size());
    for (unsigned FnIdx = 0; FnIdx < NumFns; ++FnIdx) {
      if (Current->functions()[FnIdx]->isDeclaration())
        continue;
      Any |= tryAccept([&](Module &M) {
        return fn(M, FnIdx)->mergeStraightLineBlocks() > 0;
      });
    }
    return Any;
  }

  /// Pass 3: delete instruction chunks, largest first, back to front
  /// (deletions never shift indices still to be visited). Terminators are
  /// never deleted, so the CFG is untouched.
  bool instructionPass() {
    bool Any = false;
    unsigned NumFns = static_cast<unsigned>(Current->functions().size());
    for (unsigned FnIdx = 0; FnIdx < NumFns; ++FnIdx)
      for (unsigned BbIdx = 0;
           BbIdx < Current->functions()[FnIdx]->numBlocks(); ++BbIdx)
        for (unsigned Chunk : {8u, 4u, 2u, 1u}) {
          // Deletable region: everything before the terminator. Walking
          // starts back to front, so an accepted deletion never shifts the
          // indices still to be visited.
          unsigned Size = static_cast<unsigned>(
              Current->functions()[FnIdx]->blocks()[BbIdx]->instructions()
                  .size());
          if (Size < 1 + Chunk)
            continue;
          unsigned Start = Size - 1 - Chunk;
          while (!budgetExhausted()) {
            Any |= tryAccept([&](Module &M) {
              auto &Insts = fn(M, FnIdx)->blocks()[BbIdx]->instructions();
              if (Insts.size() < 1 + Chunk || Start > Insts.size() - 1 - Chunk)
                return false;
              Insts.erase(Insts.begin() + Start,
                          Insts.begin() + Start + Chunk);
              return true;
            });
            if (Start == 0)
              break;
            Start = Start >= Chunk ? Start - Chunk : 0;
          }
        }
    return Any;
  }

  /// Pass 4: eliminate one virtual register entirely — every ordinary
  /// instruction touching it is deleted; call/ret operands referencing it
  /// are stripped (their signatures allow it); a condbr conditioned on it
  /// collapses to br. This is the cascade cleaner: it unblocks deletions
  /// pass 3 rejected for "used but never defined".
  bool vregPass() {
    bool Any = false;
    unsigned NumFns = static_cast<unsigned>(Current->functions().size());
    for (unsigned FnIdx = 0; FnIdx < NumFns; ++FnIdx) {
      unsigned NumVRegs = Current->functions()[FnIdx]->numVRegs();
      for (unsigned V = NumVRegs; V-- > 0;) {
        if (budgetExhausted())
          return Any;
        Any |= tryAccept([&](Module &M) {
          return eliminateVReg(*fn(M, FnIdx), VirtReg(V));
        });
      }
    }
    return Any;
  }

  static bool refs(const Instruction &I, VirtReg V) {
    return std::find(I.Defs.begin(), I.Defs.end(), V) != I.Defs.end() ||
           std::find(I.Uses.begin(), I.Uses.end(), V) != I.Uses.end();
  }

  static void strip(RegList &Regs, VirtReg V) {
    Regs.erase(std::remove(Regs.begin(), Regs.end(), V), Regs.end());
  }

  static bool eliminateVReg(Function &F, VirtReg V) {
    if (F.isDeclaration())
      return false;
    bool Changed = false;
    // Condbrs conditioned on V collapse first (their block list survives;
    // unreachable fallout is erased at the end).
    for (const auto &BB : F.blocks()) {
      const Instruction *Term = BB->getTerminator();
      if (Term && Term->Op == Opcode::CondBr && refs(*Term, V)) {
        BB->rewriteCondBrToBr(0);
        Changed = true;
      }
    }
    for (const auto &BB : F.blocks()) {
      auto &Insts = BB->instructions();
      for (std::size_t Idx = Insts.size(); Idx-- > 0;) {
        Instruction &I = Insts[Idx];
        if (!refs(I, V))
          continue;
        Changed = true;
        if (I.Op == Opcode::Call || I.Op == Opcode::Ret) {
          strip(I.Defs, V);
          strip(I.Uses, V);
        } else {
          assert(!I.isTerminator() && "condbr handled above; br has no regs");
          Insts.erase(Insts.begin() + static_cast<std::ptrdiff_t>(Idx));
        }
      }
    }
    if (Changed)
      F.eraseUnreachableBlocks();
    return Changed;
  }

  std::unique_ptr<Module> Current;
  const ShrinkPredicate &StillFails;
  ShrinkOptions Opts;
  unsigned Evaluations = 0;
};

} // namespace

std::unique_ptr<Module> ccra::shrinkModule(const Module &M,
                                           const ShrinkPredicate &StillFails,
                                           const ShrinkOptions &Opts,
                                           ShrinkStats *Stats) {
  return GreedyShrinker(M, StillFails, Opts).run(Stats);
}
