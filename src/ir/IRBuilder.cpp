//===- ir/IRBuilder.cpp ---------------------------------------------------===//

#include "ir/IRBuilder.h"

#include <cassert>

using namespace ccra;

Instruction &IRBuilder::emit(Instruction I) {
  assert(Block && "no insertion block set");
  return Block->append(std::move(I));
}

BasicBlock *IRBuilder::startBlock(const std::string &Name) {
  Block = F.createBlock(Name);
  return Block;
}

VirtReg IRBuilder::buildLoadImm(int64_t Value) {
  Instruction I(Opcode::LoadImm);
  VirtReg Dest = F.createVReg(RegBank::Int);
  I.Defs.push_back(Dest);
  I.Imm = Value;
  emit(std::move(I));
  return Dest;
}

VirtReg IRBuilder::buildFLoadImm(int64_t Value) {
  Instruction I(Opcode::FLoadImm);
  VirtReg Dest = F.createVReg(RegBank::Float);
  I.Defs.push_back(Dest);
  I.Imm = Value;
  emit(std::move(I));
  return Dest;
}

/// Returns the bank the operands (and result) of an arithmetic opcode must
/// be in.
static RegBank arithmeticBank(Opcode Op) {
  switch (Op) {
  case Opcode::FAdd:
  case Opcode::FSub:
  case Opcode::FMul:
  case Opcode::FDiv:
    return RegBank::Float;
  default:
    return RegBank::Int;
  }
}

VirtReg IRBuilder::buildBinary(Opcode Op, VirtReg Lhs, VirtReg Rhs) {
  RegBank Bank = arithmeticBank(Op);
  VirtReg Dest = F.createVReg(Bank);
  buildBinaryInto(Dest, Op, Lhs, Rhs);
  return Dest;
}

void IRBuilder::buildBinaryInto(VirtReg Dest, Opcode Op, VirtReg Lhs,
                                VirtReg Rhs) {
  [[maybe_unused]] RegBank Bank = arithmeticBank(Op);
  assert(F.vregBank(Lhs) == Bank && F.vregBank(Rhs) == Bank &&
         F.vregBank(Dest) == Bank && "operand bank mismatch");
  Instruction I(Op);
  I.Defs.push_back(Dest);
  I.Uses.push_back(Lhs);
  I.Uses.push_back(Rhs);
  emit(std::move(I));
}

VirtReg IRBuilder::buildCmp(VirtReg Lhs, VirtReg Rhs) {
  assert(F.vregBank(Lhs) == RegBank::Int && F.vregBank(Rhs) == RegBank::Int &&
         "cmp operands must be integer");
  Instruction I(Opcode::Cmp);
  VirtReg Dest = F.createVReg(RegBank::Int);
  I.Defs.push_back(Dest);
  I.Uses.push_back(Lhs);
  I.Uses.push_back(Rhs);
  emit(std::move(I));
  return Dest;
}

VirtReg IRBuilder::buildFCmp(VirtReg Lhs, VirtReg Rhs) {
  assert(F.vregBank(Lhs) == RegBank::Float &&
         F.vregBank(Rhs) == RegBank::Float && "fcmp operands must be float");
  Instruction I(Opcode::FCmp);
  VirtReg Dest = F.createVReg(RegBank::Int);
  I.Defs.push_back(Dest);
  I.Uses.push_back(Lhs);
  I.Uses.push_back(Rhs);
  emit(std::move(I));
  return Dest;
}

VirtReg IRBuilder::buildCvtIntToFloat(VirtReg Src) {
  assert(F.vregBank(Src) == RegBank::Int && "source must be integer");
  Instruction I(Opcode::CvtIntToFloat);
  VirtReg Dest = F.createVReg(RegBank::Float);
  I.Defs.push_back(Dest);
  I.Uses.push_back(Src);
  emit(std::move(I));
  return Dest;
}

VirtReg IRBuilder::buildCvtFloatToInt(VirtReg Src) {
  assert(F.vregBank(Src) == RegBank::Float && "source must be float");
  Instruction I(Opcode::CvtFloatToInt);
  VirtReg Dest = F.createVReg(RegBank::Int);
  I.Defs.push_back(Dest);
  I.Uses.push_back(Src);
  emit(std::move(I));
  return Dest;
}

VirtReg IRBuilder::buildLoad(VirtReg Address) {
  assert(F.vregBank(Address) == RegBank::Int && "address must be integer");
  Instruction I(Opcode::Load);
  VirtReg Dest = F.createVReg(RegBank::Int);
  I.Defs.push_back(Dest);
  I.Uses.push_back(Address);
  emit(std::move(I));
  return Dest;
}

VirtReg IRBuilder::buildFLoad(VirtReg Address) {
  assert(F.vregBank(Address) == RegBank::Int && "address must be integer");
  Instruction I(Opcode::FLoad);
  VirtReg Dest = F.createVReg(RegBank::Float);
  I.Defs.push_back(Dest);
  I.Uses.push_back(Address);
  emit(std::move(I));
  return Dest;
}

void IRBuilder::buildStore(VirtReg Value, VirtReg Address) {
  assert(F.vregBank(Value) == RegBank::Int && "store value must be integer");
  assert(F.vregBank(Address) == RegBank::Int && "address must be integer");
  Instruction I(Opcode::Store);
  I.Uses.push_back(Value);
  I.Uses.push_back(Address);
  emit(std::move(I));
}

void IRBuilder::buildFStore(VirtReg Value, VirtReg Address) {
  assert(F.vregBank(Value) == RegBank::Float && "fstore value must be float");
  assert(F.vregBank(Address) == RegBank::Int && "address must be integer");
  Instruction I(Opcode::FStore);
  I.Uses.push_back(Value);
  I.Uses.push_back(Address);
  emit(std::move(I));
}

VirtReg IRBuilder::buildMove(VirtReg Src) {
  VirtReg Dest = F.createVReg(F.vregBank(Src));
  buildMoveTo(Dest, Src);
  return Dest;
}

void IRBuilder::buildMoveTo(VirtReg Dest, VirtReg Src) {
  assert(F.vregBank(Dest) == F.vregBank(Src) && "move across banks");
  Instruction I(F.vregBank(Src) == RegBank::Int ? Opcode::Move
                                                : Opcode::FMove);
  I.Defs.push_back(Dest);
  I.Uses.push_back(Src);
  emit(std::move(I));
}

std::vector<VirtReg>
IRBuilder::buildCall(Function *Callee, const std::vector<VirtReg> &Args,
                     const std::vector<RegBank> &ReturnBanks) {
  assert(Callee && "null callee");
  Instruction I(Opcode::Call);
  I.Callee = Callee;
  I.CalleeName = Callee->getName();
  I.Uses.reserve(Args.size());
  for (VirtReg Arg : Args)
    I.Uses.push_back(Arg);
  std::vector<VirtReg> Results;
  for (RegBank Bank : ReturnBanks) {
    VirtReg R = F.createVReg(Bank);
    I.Defs.push_back(R);
    Results.push_back(R);
  }
  emit(std::move(I));
  return Results;
}

void IRBuilder::buildBr(BasicBlock *Target) {
  emit(Instruction(Opcode::Br));
  Block->addSuccessor(Target, 1.0);
}

void IRBuilder::buildCondBr(VirtReg Cond, BasicBlock *TrueTarget,
                            BasicBlock *FalseTarget, double TrueProbability) {
  assert(F.vregBank(Cond) == RegBank::Int && "condition must be integer");
  assert(TrueProbability >= 0.0 && TrueProbability <= 1.0 &&
         "probability out of range");
  Instruction I(Opcode::CondBr);
  I.Uses.push_back(Cond);
  emit(std::move(I));
  Block->addSuccessor(TrueTarget, TrueProbability);
  Block->addSuccessor(FalseTarget, 1.0 - TrueProbability);
}

void IRBuilder::buildRet() { emit(Instruction(Opcode::Ret)); }

void IRBuilder::buildRet(VirtReg Value) {
  Instruction I(Opcode::Ret);
  I.Uses.push_back(Value);
  emit(std::move(I));
}
