//===- ir/Instruction.h - Three-address RISC instructions -------*- C++ -*-===//
///
/// \file
/// The instruction set of the load/store RISC machine model from §3 of the
/// paper: all operands of all operations reside in registers. The set covers
/// integer and floating-point arithmetic, program loads/stores, register
/// moves (targets of the coalescing phase), calls, branches, and the pseudo
/// operations the register allocator itself inserts (spill code and
/// save/restore code), which are the "overhead operations" the paper counts.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_IR_INSTRUCTION_H
#define CCRA_IR_INSTRUCTION_H

#include "ir/RegList.h"
#include "ir/Register.h"

#include <cstdint>
#include <string>

namespace ccra {

class Function;

enum class Opcode : uint8_t {
  // Integer arithmetic/logic: def 1 int, use 2 int.
  Add,
  Sub,
  Mul,
  Div,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  // Integer compare: def 1 int (boolean), use 2 int.
  Cmp,
  // Immediate materialization: def 1 int / 1 float.
  LoadImm,
  FLoadImm,
  // Floating-point arithmetic: def 1 float, use 2 float.
  FAdd,
  FSub,
  FMul,
  FDiv,
  // Floating-point compare: def 1 int, use 2 float.
  FCmp,
  // Conversions.
  CvtIntToFloat, // def 1 float, use 1 int
  CvtFloatToInt, // def 1 int, use 1 float
  // Program memory operations (not allocator overhead): address is an int
  // register; the value moved is int (Load/Store) or float (FLoad/FStore).
  Load,
  Store,
  FLoad,
  FStore,
  // Register-to-register copies; candidates for the coalescing phase.
  Move,  // int -> int
  FMove, // float -> float
  // Control flow. Successor blocks live on the BasicBlock.
  Br,
  CondBr, // use 1 int condition
  Ret,
  Call, // uses = arguments, defs = return values, Callee set
  // --- Overhead pseudo-operations inserted by the register allocator ---
  // Spill code for a memory-resident live range (paper §3: spill cost).
  SpillLoad,  // def 1 (reload temp), SpillSlot set
  SpillStore, // use 1 (value to spill), SpillSlot set
  // Save/restore of a physical register: around calls for caller-save
  // registers (caller-save cost) and at entry/exit for callee-save
  // registers (callee-save cost). Operate on physical registers only.
  Save,
  Restore,
  // A move between the storage locations of a split live range
  // (shuffle cost). Physical-register operands.
  ShuffleMove,
};

/// Which of the paper's cost components an overhead instruction belongs to
/// (§3): spill cost, caller-save cost, callee-save cost, or shuffle cost.
enum class OverheadKind : uint8_t {
  None = 0,
  Spill,
  CallerSave,
  CalleeSave,
  Shuffle,
};

/// Static per-opcode properties.
struct OpcodeInfo {
  const char *Name;
  bool IsTerminator;
  bool IsCall;
  /// Touches memory: program loads/stores, spill code, save/restore. Memory
  /// operations cost extra cycles in the Table 4 execution-time model.
  bool IsMemory;
  /// A coalescable register-to-register copy.
  bool IsMove;
  /// Inserted by the register allocator; counted as overhead (§3).
  bool IsOverhead;
};

const OpcodeInfo &getOpcodeInfo(Opcode Op);

/// One three-address instruction. Defs and uses reference virtual registers
/// until allocation; the overhead pseudo-ops reference physical registers
/// via the Phys field.
struct Instruction {
  Opcode Op;
  RegList Defs;
  RegList Uses;

  /// Immediate payload for LoadImm/FLoadImm (value is irrelevant to
  /// allocation; kept for printing and the cycle model).
  int64_t Imm = 0;

  /// Target of a Call. Null only for external calls identified by
  /// CalleeName.
  Function *Callee = nullptr;
  std::string CalleeName;

  /// Spill slot index for SpillLoad/SpillStore.
  unsigned SpillSlot = ~0u;

  /// Physical register for Save/Restore, and destination of ShuffleMove.
  PhysReg Phys;
  /// Source of ShuffleMove.
  PhysReg PhysSrc;

  /// Cost component this instruction contributes to, when it is overhead.
  OverheadKind Overhead = OverheadKind::None;

  explicit Instruction(Opcode Op) : Op(Op) {}

  const OpcodeInfo &info() const { return getOpcodeInfo(Op); }
  bool isTerminator() const { return info().IsTerminator; }
  bool isCall() const { return info().IsCall; }
  bool isMove() const { return info().IsMove; }
  bool isOverhead() const { return info().IsOverhead; }
  bool isMemory() const { return info().IsMemory; }

  /// For a coalescable move, the copied-from register.
  VirtReg moveSource() const;
  /// For a coalescable move, the copied-to register.
  VirtReg moveDest() const;
};

} // namespace ccra

#endif // CCRA_IR_INSTRUCTION_H
