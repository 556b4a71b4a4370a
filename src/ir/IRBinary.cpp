//===- ir/IRBinary.cpp ----------------------------------------------------===//

#include "ir/IRBinary.h"

#include <cstring>
#include <unordered_map>

using namespace ccra;

namespace {

constexpr std::uint32_t BinaryMagic = 0x32524943; // "CIR2" in LE bytes

// --- Writer --------------------------------------------------------------

void putVarint(std::string &Out, std::uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

void putZigzag(std::string &Out, std::int64_t V) {
  putVarint(Out, (static_cast<std::uint64_t>(V) << 1) ^
                     static_cast<std::uint64_t>(V >> 63));
}

void putString(std::string &Out, const std::string &S) {
  putVarint(Out, S.size());
  Out += S;
}

void putDouble(std::string &Out, double V) {
  std::uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  for (int Shift = 0; Shift < 64; Shift += 8)
    Out.push_back(static_cast<char>((Bits >> Shift) & 0xff));
}

void putPhysReg(std::string &Out, PhysReg R) {
  Out.push_back(static_cast<char>(R.Bank));
  putVarint(Out, R.Index);
}

void putRegList(std::string &Out, const RegList &Regs) {
  putVarint(Out, Regs.size());
  for (VirtReg R : Regs)
    putVarint(Out, R.Id);
}

bool failEncode(std::string *Err, const std::string &Message) {
  if (Err)
    *Err = Message;
  return false;
}

// --- Reader --------------------------------------------------------------

class Reader {
public:
  explicit Reader(const std::string &Bytes)
      : P(Bytes.data()), N(Bytes.size()) {}

  bool u8(std::uint8_t &Out) {
    if (Pos >= N)
      return false;
    Out = static_cast<std::uint8_t>(P[Pos++]);
    return true;
  }

  bool u32(std::uint32_t &Out) {
    if (N - Pos < 4)
      return false;
    Out = 0;
    for (int Shift = 0; Shift < 32; Shift += 8)
      Out |= static_cast<std::uint32_t>(static_cast<unsigned char>(P[Pos++]))
             << Shift;
    return true;
  }

  bool varint(std::uint64_t &Out) {
    Out = 0;
    for (int Shift = 0; Shift < 64; Shift += 7) {
      if (Pos >= N)
        return false;
      unsigned char B = static_cast<unsigned char>(P[Pos++]);
      // The 10th byte can only carry bit 63: anything above (including a
      // further continuation bit) is a non-canonical encoding whose high
      // bits the shift would silently discard, letting two distinct byte
      // strings decode to the same value. Reject it.
      if (Shift == 63 && B > 1)
        return false;
      Out |= static_cast<std::uint64_t>(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return true;
    }
    return false; // continuation past 64 bits: not a valid varint
  }

  bool zigzag(std::int64_t &Out) {
    std::uint64_t V;
    if (!varint(V))
      return false;
    Out = static_cast<std::int64_t>((V >> 1) ^ (~(V & 1) + 1));
    return true;
  }

  bool str(std::string &Out) {
    std::uint64_t Len;
    if (!varint(Len) || Len > N - Pos)
      return false;
    Out.assign(P + Pos, Len);
    Pos += Len;
    return true;
  }

  bool dbl(double &Out) {
    if (N - Pos < 8)
      return false;
    std::uint64_t Bits = 0;
    for (int Shift = 0; Shift < 64; Shift += 8)
      Bits |= static_cast<std::uint64_t>(static_cast<unsigned char>(P[Pos++]))
              << Shift;
    std::memcpy(&Out, &Bits, sizeof(Out));
    return true;
  }

  /// A count of items that each occupy at least one encoded byte; capping
  /// it by the bytes actually left means a hostile varint cannot drive a
  /// multi-gigabyte reservation off a 20-byte payload.
  bool count(std::uint64_t &Out) { return varint(Out) && Out <= N - Pos; }

  std::size_t remaining() const { return N - Pos; }

private:
  const char *P;
  std::size_t N;
  std::size_t Pos = 0;
};

struct DecodeFailure {
  std::string Message;
};

[[noreturn]] void bad(std::string Message) {
  throw DecodeFailure{std::move(Message)};
}

std::uint64_t readCount(Reader &R, const char *What) {
  std::uint64_t V;
  if (!R.count(V))
    bad(std::string("bad or oversized ") + What + " count");
  return V;
}

VirtReg readReg(Reader &R, std::uint64_t NumVRegs) {
  std::uint64_t Id;
  if (!R.varint(Id))
    bad("truncated register id");
  if (Id >= NumVRegs)
    bad("register id " + std::to_string(Id) + " out of range");
  return VirtReg(static_cast<unsigned>(Id));
}

PhysReg readPhysReg(Reader &R) {
  std::uint8_t Bank;
  std::uint64_t Index;
  if (!R.u8(Bank) || Bank > 1 || !R.varint(Index) ||
      Index >= PhysReg::InvalidIndex)
    bad("bad physical register");
  return PhysReg(static_cast<RegBank>(Bank), static_cast<unsigned>(Index));
}

/// Decodes one instruction. Calls are validated against the declared
/// function count but resolved later (forward references, exactly like the
/// text parser's pending-callee list); the index comes back in
/// \p CalleeIndex.
Instruction readInstruction(Reader &R, std::uint64_t NumFuncs,
                            std::uint64_t NumVRegs,
                            std::uint64_t &CalleeIndex) {
  std::uint8_t Op;
  if (!R.u8(Op) || Op > static_cast<std::uint8_t>(Opcode::ShuffleMove))
    bad("bad opcode");
  Instruction I(static_cast<Opcode>(Op));

  std::uint64_t NumDefs = readCount(R, "def");
  I.Defs.reserve(NumDefs);
  for (std::uint64_t J = 0; J < NumDefs; ++J)
    I.Defs.push_back(readReg(R, NumVRegs));

  switch (I.Op) {
  case Opcode::LoadImm:
  case Opcode::FLoadImm:
    if (!R.zigzag(I.Imm))
      bad("truncated immediate");
    break;
  case Opcode::Call: {
    if (!R.varint(CalleeIndex) || CalleeIndex >= NumFuncs)
      bad("callee index out of range");
    std::uint64_t NumUses = readCount(R, "argument");
    I.Uses.reserve(NumUses);
    for (std::uint64_t J = 0; J < NumUses; ++J)
      I.Uses.push_back(readReg(R, NumVRegs));
    break;
  }
  case Opcode::SpillLoad: {
    std::uint64_t Slot;
    if (!R.varint(Slot))
      bad("truncated spill slot");
    I.SpillSlot = static_cast<unsigned>(Slot);
    I.Overhead = OverheadKind::Spill;
    break;
  }
  case Opcode::SpillStore: {
    I.Uses.push_back(readReg(R, NumVRegs));
    std::uint64_t Slot;
    if (!R.varint(Slot))
      bad("truncated spill slot");
    I.SpillSlot = static_cast<unsigned>(Slot);
    I.Overhead = OverheadKind::Spill;
    break;
  }
  case Opcode::Save:
  case Opcode::Restore:
    I.Phys = readPhysReg(R);
    break;
  case Opcode::ShuffleMove:
    I.Phys = readPhysReg(R);
    I.PhysSrc = readPhysReg(R);
    I.Overhead = OverheadKind::Shuffle;
    break;
  default: {
    std::uint64_t NumUses = readCount(R, "use");
    I.Uses.reserve(NumUses);
    for (std::uint64_t J = 0; J < NumUses; ++J)
      I.Uses.push_back(readReg(R, NumVRegs));
    break;
  }
  }
  return I;
}

} // namespace

bool ccra::encodeModuleBinary(const Module &M, std::string &Out,
                              std::string *Err) {
  Out.clear();
  std::unordered_map<const Function *, unsigned> FuncIndex;
  FuncIndex.reserve(M.functions().size());
  for (const auto &F : M.functions())
    FuncIndex.emplace(F.get(), static_cast<unsigned>(FuncIndex.size()));

  for (int Shift = 0; Shift < 32; Shift += 8)
    Out.push_back(static_cast<char>((BinaryMagic >> Shift) & 0xff));
  putString(Out, M.getName());
  putVarint(Out, M.functions().size());

  for (const auto &FPtr : M.functions()) {
    const Function &F = *FPtr;
    putString(Out, F.getName());
    unsigned NumVRegs = F.numVRegs();
    putVarint(Out, NumVRegs);
    std::string Bitmap((NumVRegs + 7) / 8, '\0');
    for (unsigned Id = 0; Id < NumVRegs; ++Id)
      if (F.vregBank(VirtReg(Id)) == RegBank::Float)
        Bitmap[Id / 8] |= static_cast<char>(1u << (Id % 8));
    Out += Bitmap;

    putVarint(Out, F.blocks().size());
    for (const auto &BB : F.blocks())
      putString(Out, BB->getName());
    for (const auto &BB : F.blocks()) {
      putVarint(Out, BB->instructions().size());
      for (const Instruction &I : BB->instructions()) {
        for (VirtReg R : I.Defs)
          if (R.Id >= NumVRegs)
            return failEncode(Err, "def register out of table range in @" +
                                       F.getName());
        for (VirtReg R : I.Uses)
          if (R.Id >= NumVRegs)
            return failEncode(Err, "use register out of table range in @" +
                                       F.getName());
        Out.push_back(static_cast<char>(I.Op));
        putRegList(Out, I.Defs);
        switch (I.Op) {
        case Opcode::LoadImm:
        case Opcode::FLoadImm:
          putZigzag(Out, I.Imm);
          break;
        case Opcode::Call: {
          const Function *Callee =
              I.Callee ? I.Callee : M.getFunction(I.CalleeName);
          auto It = Callee ? FuncIndex.find(Callee) : FuncIndex.end();
          if (It == FuncIndex.end())
            return failEncode(Err, "call to unknown function @" +
                                       (I.Callee ? I.Callee->getName()
                                                 : I.CalleeName));
          putVarint(Out, It->second);
          putRegList(Out, I.Uses);
          break;
        }
        case Opcode::SpillLoad:
          putVarint(Out, I.SpillSlot);
          break;
        case Opcode::SpillStore:
          if (I.Uses.empty())
            return failEncode(Err, "spill.store without a value operand");
          putVarint(Out, I.Uses[0].Id);
          putVarint(Out, I.SpillSlot);
          break;
        case Opcode::Save:
        case Opcode::Restore:
          putPhysReg(Out, I.Phys);
          break;
        case Opcode::ShuffleMove:
          putPhysReg(Out, I.Phys);
          putPhysReg(Out, I.PhysSrc);
          break;
        default:
          putRegList(Out, I.Uses);
          break;
        }
      }
      putVarint(Out, BB->successors().size());
      for (const CfgEdge &E : BB->successors()) {
        putVarint(Out, E.Succ->getId());
        putDouble(Out, E.Probability);
      }
    }
  }
  return true;
}

std::unique_ptr<Module> ccra::decodeModuleBinary(const std::string &Bytes,
                                                 std::string *Err) {
  Reader R(Bytes);
  try {
    std::uint32_t Magic;
    if (!R.u32(Magic) || Magic != BinaryMagic)
      bad("bad binary module magic");
    std::string Name;
    if (!R.str(Name))
      bad("truncated module name");
    auto M = std::make_unique<Module>(std::move(Name));

    std::uint64_t NumFuncs = readCount(R, "function");

    // Calls reference callees by final module index, which may be a
    // function whose shell has not decoded yet; record and resolve after
    // the last function, mirroring the text parser's pending-callee list.
    struct PendingCall {
      BasicBlock *Block;
      std::size_t Index;
      std::uint64_t Callee;
    };
    std::vector<PendingCall> Pending;

    for (std::uint64_t FI = 0; FI < NumFuncs; ++FI) {
      std::string FName;
      if (!R.str(FName))
        bad("truncated function name");
      if (M->getFunction(FName))
        bad("duplicate function @" + FName);
      Function *F = M->createFunction(FName);
      if (FName == "main")
        M->setEntryFunction(F);

      // Compare counts, not bitmap bytes: (NumVRegs + 7) / 8 wraps to 0
      // for NumVRegs near 2^64, which would pass an empty bitmap through
      // and drive the createVReg loop ~2^64 iterations. remaining() is
      // bounded by the payload size, so the multiply cannot overflow.
      std::uint64_t NumVRegs;
      if (!R.varint(NumVRegs) ||
          NumVRegs > 8 * static_cast<std::uint64_t>(R.remaining()))
        bad("bad vreg table size");
      std::string Bitmap;
      Bitmap.resize(static_cast<std::size_t>((NumVRegs + 7) / 8));
      for (std::size_t B = 0; B < Bitmap.size(); ++B) {
        std::uint8_t Byte = 0;
        R.u8(Byte); // length validated above
        Bitmap[B] = static_cast<char>(Byte);
      }
      for (std::uint64_t Id = 0; Id < NumVRegs; ++Id)
        F->createVReg((Bitmap[Id / 8] >> (Id % 8)) & 1 ? RegBank::Float
                                                       : RegBank::Int);

      std::uint64_t NumBlocks = readCount(R, "block");
      std::vector<BasicBlock *> Blocks;
      Blocks.reserve(NumBlocks);
      for (std::uint64_t BI = 0; BI < NumBlocks; ++BI) {
        std::string BName;
        if (!R.str(BName))
          bad("truncated block name in @" + FName);
        Blocks.push_back(F->createBlock(BName));
      }
      for (std::uint64_t BI = 0; BI < NumBlocks; ++BI) {
        BasicBlock *BB = Blocks[BI];
        std::uint64_t NumInsts = readCount(R, "instruction");
        BB->instructions().reserve(NumInsts);
        for (std::uint64_t II = 0; II < NumInsts; ++II) {
          std::uint64_t CalleeIndex = 0;
          Instruction I = readInstruction(R, NumFuncs, NumVRegs, CalleeIndex);
          if (BB->isTerminated())
            bad("instruction after terminator in @" + FName + " block " +
                BB->getName());
          Instruction &Placed = BB->append(std::move(I));
          if (Placed.isCall())
            Pending.push_back(
                {BB, BB->instructions().size() - 1, CalleeIndex});
        }
        std::uint64_t NumSuccs = readCount(R, "successor");
        for (std::uint64_t SI = 0; SI < NumSuccs; ++SI) {
          std::uint64_t Target;
          double Probability;
          if (!R.varint(Target) || Target >= NumBlocks)
            bad("successor index out of range in @" + FName);
          if (!R.dbl(Probability))
            bad("truncated successor probability in @" + FName);
          BB->addSuccessor(Blocks[Target], Probability);
        }
      }
    }
    if (R.remaining() > 0)
      bad("trailing bytes after module");

    for (const PendingCall &P : Pending) {
      Function *Callee = M->functions()[P.Callee].get();
      Instruction &I = P.Block->instructions()[P.Index];
      I.Callee = Callee;
      I.CalleeName = Callee->getName();
    }
    return M;
  } catch (const DecodeFailure &F) {
    if (Err)
      *Err = F.Message;
    return nullptr;
  }
}
