//===- ir/IRParser.cpp ----------------------------------------------------===//

#include "ir/IRParser.h"

#include "ir/IRPrinter.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <sstream>

using namespace ccra;

namespace {

/// Maps printed opcode names back to opcodes.
const std::map<std::string, Opcode> &opcodeByName() {
  static const std::map<std::string, Opcode> Table = [] {
    std::map<std::string, Opcode> M;
    for (unsigned I = 0; I <= static_cast<unsigned>(Opcode::ShuffleMove); ++I) {
      Opcode Op = static_cast<Opcode>(I);
      M[getOpcodeInfo(Op).Name] = Op;
    }
    return M;
  }();
  return Table;
}

class Parser {
public:
  explicit Parser(const std::string &Text) : Input(Text) {}

  ParseResult run();

private:
  // --- Lexical helpers (line oriented) -----------------------------------
  bool nextLine(std::string &Out);

  /// Reports a diagnostic at the current line. When \p Near names the
  /// offending token, its first occurrence in the raw (untrimmed) line
  /// gives the 1-based column, so editors can jump straight to it.
  void error(const std::string &Message, const std::string &Near = "") {
    unsigned Column = 0;
    if (!Near.empty()) {
      size_t Pos = CurrentRaw.find(Near);
      if (Pos != std::string::npos)
        Column = static_cast<unsigned>(Pos) + 1;
    }
    Diags.emplace_back(LineNo, Column, Message, Near);
  }

  static std::string trim(const std::string &S) {
    size_t Begin = S.find_first_not_of(" \t\r");
    if (Begin == std::string::npos)
      return "";
    size_t End = S.find_last_not_of(" \t\r");
    return S.substr(Begin, End - Begin + 1);
  }

  /// Strips a trailing line comment (used for the "; preds:" annotation;
  /// "; succs:" lines are significant and handled before this).
  static std::string stripComment(const std::string &S) {
    size_t Pos = S.find(';');
    return trim(Pos == std::string::npos ? S : S.substr(0, Pos));
  }

  // --- Grammar ------------------------------------------------------------
  bool parseFunction(const std::string &Header);
  bool parseBody(Function &F);
  bool parseInstruction(Function &F, BasicBlock *BB, const std::string &Line);
  bool parseSuccessors(Function &F, BasicBlock *BB, const std::string &Line);

  VirtReg parseReg(Function &F, std::string Token);
  PhysReg parsePhysReg(std::string Token);
  bool splitDefs(const std::string &Line, std::string &DefsText,
                 std::string &RestText);
  std::vector<std::string> splitCommaList(const std::string &Text);

  std::istringstream Input;
  unsigned LineNo = 0;
  /// The raw text of the line currently being parsed (column lookups).
  std::string CurrentRaw;
  std::unique_ptr<Module> M;
  std::vector<Diagnostic> Diags;

  // Per-function state.
  std::map<std::string, BasicBlock *> BlocksByName;
  std::map<unsigned, RegBank> BankOfVReg;
  /// Bytes of the current function's body text: register ids stay below.
  std::size_t BodyBytes = 0;
  /// Calls awaiting callee resolution at end of module. Stored as
  /// (block, instruction index): instruction vectors may reallocate while
  /// the block is still being filled.
  struct PendingCall {
    BasicBlock *Block;
    size_t Index;
    std::string Name;
  };
  std::vector<PendingCall> PendingCallees;
};

bool Parser::nextLine(std::string &Out) {
  if (!std::getline(Input, Out))
    return false;
  ++LineNo;
  CurrentRaw = Out;
  return true;
}

ParseResult Parser::run() {
  std::string Line;
  bool SawModule = false;
  while (nextLine(Line)) {
    std::string Text = trim(Line);
    if (Text.empty() || Text[0] == ';')
      continue; // blank or full-line comment (reproducer provenance headers)
    if (Text.rfind("module ", 0) == 0) {
      if (SawModule) {
        error("duplicate 'module' line");
        break;
      }
      SawModule = true;
      M = std::make_unique<Module>(trim(Text.substr(7)));
      continue;
    }
    if (Text.rfind("func ", 0) == 0) {
      if (!SawModule) {
        error("'func' before 'module'");
        break;
      }
      if (!parseFunction(Text))
        break;
      continue;
    }
    error("expected 'module' or 'func', got: " + Text,
          Text.substr(0, Text.find_first_of(" \t")));
    break;
  }
  if (!SawModule && Diags.empty())
    error("no 'module' line found");

  ParseResult Result;
  if (Diags.empty()) {
    // Resolve forward-referenced callees.
    for (const PendingCall &Pending : PendingCallees) {
      Function *Callee = M->getFunction(Pending.Name);
      if (!Callee) {
        Diags.emplace_back(0, 0,
                           "call to unknown function @" + Pending.Name);
        break;
      }
      Pending.Block->instructions()[Pending.Index].Callee = Callee;
    }
  }
  if (Diags.empty())
    Result.M = std::move(M);
  Result.Diags = std::move(Diags);
  Result.Errors = renderDiagnostics(Result.Diags);
  return Result;
}

bool Parser::parseFunction(const std::string &Header) {
  // "func @name {" or "func @name (external)".
  std::string Rest = trim(Header.substr(5));
  if (Rest.empty() || Rest[0] != '@') {
    error("function name must start with '@'",
          Rest.substr(0, Rest.find_first_of(" \t")));
    return false;
  }
  size_t NameEnd = Rest.find_first_of(" \t");
  std::string Name = Rest.substr(1, NameEnd - 1);
  std::string Tail = NameEnd == std::string::npos ? "" : trim(Rest.substr(NameEnd));
  if (M->getFunction(Name)) {
    error("duplicate function @" + Name, "@" + Name);
    return false;
  }
  Function *F = M->createFunction(Name);
  if (Name == "main")
    M->setEntryFunction(F);

  if (Tail == "(external)")
    return true;
  if (Tail != "{") {
    error("expected '{' or '(external)' after function name", Tail);
    return false;
  }
  BlocksByName.clear();
  BankOfVReg.clear();
  return parseBody(*F);
}

bool Parser::parseBody(Function &F) {
  // Two passes over the body text: labels first (so branches can refer to
  // later blocks), then instructions. Collect the body lines up front —
  // raw, so diagnostics can point at the offending token's real column.
  std::vector<std::pair<unsigned, std::string>> Body;
  std::string Line;
  bool Closed = false;
  BodyBytes = 0;
  while (nextLine(Line)) {
    BodyBytes += Line.size() + 1;
    std::string Text = trim(Line);
    if (Text == "}") {
      Closed = true;
      break;
    }
    if (!Text.empty())
      Body.push_back({LineNo, Line});
  }
  if (!Closed) {
    error("missing '}' at end of function @" + F.getName());
    return false;
  }

  for (auto &[No, Raw] : Body) {
    std::string Text = trim(Raw);
    if (Text.rfind("; succs:", 0) == 0 || Text[0] == ';')
      continue;
    std::string Clean = stripComment(Text);
    if (!Clean.empty() && Clean.back() == ':') {
      std::string Label = Clean.substr(0, Clean.size() - 1);
      if (BlocksByName.count(Label)) {
        LineNo = No;
        CurrentRaw = Raw;
        error("duplicate block label '" + Label + "'", Label);
        return false;
      }
      BlocksByName[Label] = F.createBlock(Label);
    }
  }
  if (BlocksByName.empty()) {
    error("function @" + F.getName() + " has no blocks");
    return false;
  }

  BasicBlock *Current = nullptr;
  for (auto &[No, Raw] : Body) {
    LineNo = No;
    CurrentRaw = Raw;
    std::string Text = trim(Raw);
    if (Text.rfind("; succs:", 0) == 0) {
      if (!Current) {
        error("successor list before the first block label");
        return false;
      }
      if (!parseSuccessors(F, Current, trim(Text.substr(8))))
        return false;
      continue;
    }
    if (Text[0] == ';')
      continue; // free-standing comment
    std::string Clean = stripComment(Text);
    if (Clean.empty())
      continue;
    if (Clean.back() == ':') {
      Current = BlocksByName.at(Clean.substr(0, Clean.size() - 1));
      continue;
    }
    if (!Current) {
      error("instruction before first block label");
      return false;
    }
    if (!parseInstruction(F, Current, Clean))
      return false;
  }

  // Materialize the register table now that every reference is known, so
  // printed ids survive the round trip (ids never referenced become
  // integer-bank placeholders; parseReg bounded the ids).
  unsigned MaxId = BankOfVReg.empty() ? 0 : BankOfVReg.rbegin()->first + 1;
  for (unsigned Id = 0; Id < MaxId; ++Id) {
    auto It = BankOfVReg.find(Id);
    F.createVReg(It == BankOfVReg.end() ? RegBank::Int : It->second);
  }
  return true;
}

VirtReg Parser::parseReg(Function &F, std::string Token) {
  Token = trim(Token);
  if (Token.size() < 3 || Token[0] != '%' ||
      (Token[1] != 'i' && Token[1] != 'f')) {
    error("bad register '" + Token + "'", Token);
    return VirtReg();
  }
  RegBank Bank = Token[1] == 'i' ? RegBank::Int : RegBank::Float;
  // Digits only (strtoull also takes a sign or blanks), and the id must
  // fit: narrowing a wider one would alias a small id (%i4294967296 as
  // %i0).
  const char *Digits = Token.c_str() + 2;
  char *End = nullptr;
  errno = 0;
  unsigned long long Id = std::strtoull(Digits, &End, 10);
  if (!std::isdigit(static_cast<unsigned char>(*Digits)) || *End != '\0') {
    error("bad register id in '" + Token + "'", Token);
    return VirtReg();
  }
  if (errno == ERANGE || Id >= VirtReg::InvalidId) {
    error("register id out of range in '" + Token + "'", Token);
    return VirtReg();
  }
  // The table gets a placeholder for every id below the largest, so an id
  // past the body's length is a memory bomb, not a function: refuse it, as
  // the binary decoder bounds its table by the bytes remaining.
  if (Id >= BodyBytes) {
    error("register id in '" + Token + "' exceeds the " +
              std::to_string(BodyBytes) + "-byte function body",
          Token);
    return VirtReg();
  }
  (void)F;
  auto [It, Inserted] = BankOfVReg.insert({static_cast<unsigned>(Id), Bank});
  if (!Inserted && It->second != Bank) {
    error("register %" + std::to_string(Id) + " used with two banks", Token);
    return VirtReg();
  }
  return VirtReg(static_cast<unsigned>(Id));
}

PhysReg Parser::parsePhysReg(std::string Token) {
  Token = trim(Token);
  RegBank Bank;
  size_t Digits;
  if (Token.rfind("fp", 0) == 0) {
    Bank = RegBank::Float;
    Digits = 2;
  } else if (!Token.empty() && Token[0] == 'r') {
    Bank = RegBank::Int;
    Digits = 1;
  } else {
    error("bad physical register '" + Token + "'", Token);
    return PhysReg();
  }
  char *End = nullptr;
  unsigned long Index = std::strtoul(Token.c_str() + Digits, &End, 10);
  if (*End != '\0') {
    error("bad physical register '" + Token + "'", Token);
    return PhysReg();
  }
  return PhysReg(Bank, static_cast<unsigned>(Index));
}

bool Parser::splitDefs(const std::string &Line, std::string &DefsText,
                       std::string &RestText) {
  size_t Eq = Line.find(" = ");
  if (Eq == std::string::npos || Line[0] != '%') {
    DefsText.clear();
    RestText = Line;
    return true;
  }
  DefsText = Line.substr(0, Eq);
  RestText = trim(Line.substr(Eq + 3));
  return true;
}

std::vector<std::string> Parser::splitCommaList(const std::string &Text) {
  std::vector<std::string> Parts;
  std::string Current;
  for (char C : Text) {
    if (C == ',') {
      Parts.push_back(trim(Current));
      Current.clear();
    } else {
      Current.push_back(C);
    }
  }
  if (!trim(Current).empty())
    Parts.push_back(trim(Current));
  return Parts;
}

bool Parser::parseInstruction(Function &F, BasicBlock *BB,
                              const std::string &Line) {
  std::string DefsText, Rest;
  splitDefs(Line, DefsText, Rest);

  size_t NameEnd = Rest.find_first_of(" \t");
  std::string OpName = Rest.substr(0, NameEnd);
  std::string Operands =
      NameEnd == std::string::npos ? "" : trim(Rest.substr(NameEnd));

  auto It = opcodeByName().find(OpName);
  if (It == opcodeByName().end()) {
    error("unknown opcode '" + OpName + "'", OpName);
    return false;
  }
  Instruction I(It->second);

  for (const std::string &Token : splitCommaList(DefsText)) {
    VirtReg R = parseReg(F, Token);
    if (!R.isValid())
      return false;
    I.Defs.push_back(R);
  }

  switch (I.Op) {
  case Opcode::LoadImm:
  case Opcode::FLoadImm:
    I.Imm = std::strtoll(Operands.c_str(), nullptr, 10);
    break;
  case Opcode::Call: {
    size_t Paren = Operands.find('(');
    if (Operands.empty() || Operands[0] != '@' ||
        Paren == std::string::npos || Operands.back() != ')') {
      error("malformed call '" + Operands + "'", Operands);
      return false;
    }
    I.CalleeName = Operands.substr(1, Paren - 1);
    std::string Args =
        Operands.substr(Paren + 1, Operands.size() - Paren - 2);
    for (const std::string &Token : splitCommaList(Args)) {
      VirtReg R = parseReg(F, Token);
      if (!R.isValid())
        return false;
      I.Uses.push_back(R);
    }
    break;
  }
  case Opcode::SpillLoad: {
    if (Operands.rfind("slot", 0) != 0) {
      error("spill.load expects a slot operand", Operands);
      return false;
    }
    I.SpillSlot = static_cast<unsigned>(
        std::strtoul(Operands.c_str() + 4, nullptr, 10));
    I.Overhead = OverheadKind::Spill;
    break;
  }
  case Opcode::SpillStore: {
    auto Parts = splitCommaList(Operands);
    if (Parts.size() != 2 || Parts[1].rfind("slot", 0) != 0) {
      error("spill.store expects '%reg, slotN'", Operands);
      return false;
    }
    VirtReg R = parseReg(F, Parts[0]);
    if (!R.isValid())
      return false;
    I.Uses.push_back(R);
    I.SpillSlot = static_cast<unsigned>(
        std::strtoul(Parts[1].c_str() + 4, nullptr, 10));
    I.Overhead = OverheadKind::Spill;
    break;
  }
  case Opcode::Save:
  case Opcode::Restore: {
    I.Phys = parsePhysReg(Operands);
    if (!I.Phys.isValid())
      return false;
    break;
  }
  case Opcode::ShuffleMove: {
    auto Parts = splitCommaList(Operands);
    if (Parts.size() != 2) {
      error("shuffle.move expects two physical registers", Operands);
      return false;
    }
    I.Phys = parsePhysReg(Parts[0]);
    I.PhysSrc = parsePhysReg(Parts[1]);
    if (!I.Phys.isValid() || !I.PhysSrc.isValid())
      return false;
    I.Overhead = OverheadKind::Shuffle;
    break;
  }
  default:
    for (const std::string &Token : splitCommaList(Operands)) {
      VirtReg R = parseReg(F, Token);
      if (!R.isValid())
        return false;
      I.Uses.push_back(R);
    }
    break;
  }

  if (BB->isTerminated()) {
    error("instruction after terminator in @" + F.getName() + " block " +
              BB->getName(),
          OpName);
    return false;
  }
  Instruction &Placed = BB->append(std::move(I));
  if (Placed.isCall())
    PendingCallees.push_back(
        {BB, BB->instructions().size() - 1, Placed.CalleeName});
  return true;
}

bool Parser::parseSuccessors(Function &F, BasicBlock *BB,
                             const std::string &Line) {
  (void)F;
  std::istringstream Stream(Line);
  std::string Token;
  while (Stream >> Token) {
    size_t Paren = Token.find('(');
    if (Paren == std::string::npos || Token.back() != ')') {
      error("malformed successor '" + Token + "'", Token);
      return false;
    }
    std::string Target = Token.substr(0, Paren);
    double Probability =
        std::strtod(Token.substr(Paren + 1, Token.size() - Paren - 2).c_str(),
                    nullptr);
    auto It = BlocksByName.find(Target);
    if (It == BlocksByName.end()) {
      error("successor references unknown block '" + Target + "'", Target);
      return false;
    }
    BB->addSuccessor(It->second, Probability);
  }
  return true;
}

} // namespace

ParseResult ccra::parseModule(const std::string &Text) {
  return Parser(Text).run();
}
