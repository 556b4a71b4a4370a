//===- frontend/Parser.cpp ------------------------------------------------===//

#include "frontend/Parser.h"

#include <string>

using namespace ccra;
using namespace ccra::cc;

namespace {

class ParserImpl {
public:
  ParserImpl(const std::vector<Token> &Tokens, std::vector<Diagnostic> &Diags)
      : Tokens(Tokens), Diags(Diags) {}

  std::unique_ptr<TranslationUnit> run();

private:
  const Token &peek(size_t Ahead = 0) const {
    size_t Idx = Pos + Ahead;
    return Idx < Tokens.size() ? Tokens[Idx] : Tokens.back();
  }
  const Token &advance() { return Tokens[Pos++]; }
  bool check(TokenKind Kind) const { return peek().is(Kind); }
  bool match(TokenKind Kind) {
    if (!check(Kind))
      return false;
    ++Pos;
    return true;
  }
  /// Consumes a token of \p Kind or reports "expected X" at the current
  /// token and fails.
  bool expect(TokenKind Kind, const char *Context) {
    if (match(Kind))
      return true;
    const Token &T = peek();
    error(std::string("expected ") + tokenKindName(Kind) + " " + Context, T);
    return false;
  }
  void error(const std::string &Message, const Token &T) {
    Diags.emplace_back(T.Line, T.Column, Message,
                       T.is(TokenKind::Eof) ? "" : T.Text);
  }

  /// Deepest statement/expression tree the parser builds. Sema, IRGen and
  /// the AST's destructors recurse once per level, so input nested tens of
  /// thousands deep would overflow the stack; the corpus nests under 20.
  static constexpr unsigned MaxDepth = 256;

  /// Tree levels entered by one parse call, given back when it returns.
  class DepthScope {
  public:
    explicit DepthScope(ParserImpl &P) : P(P), Saved(P.Depth) {}
    ~DepthScope() { P.Depth = Saved; }
    /// One level deeper at \p At; false, diagnosed, past MaxDepth.
    bool deeper(const Token &At) {
      if (P.Depth == MaxDepth) {
        P.error("nesting exceeds " + std::to_string(MaxDepth) + " levels",
                At);
        return false;
      }
      ++P.Depth;
      return true;
    }

  private:
    ParserImpl &P;
    unsigned Saved;
  };

  bool parseTopLevel(TranslationUnit &TU);
  bool parseGlobal(TranslationUnit &TU, Type Ty, const Token &NameTok);
  bool parseFunction(TranslationUnit &TU, const Token &NameTok);
  StmtPtr parseStmt();
  StmtPtr parseCompound();
  StmtPtr parseDecl();
  ExprPtr parseExpr();
  ExprPtr parseAssignment();
  ExprPtr parseBinary(int MinPrec);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  const std::vector<Token> &Tokens;
  std::vector<Diagnostic> &Diags;
  size_t Pos = 0;
  unsigned Depth = 0;
};

/// Binding power of a (left-associative) binary operator, or -1.
int binaryPrecedence(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::OrOr:      return 1;
  case TokenKind::AndAnd:    return 2;
  case TokenKind::EqEq:
  case TokenKind::NotEq:     return 3;
  case TokenKind::Less:
  case TokenKind::Greater:
  case TokenKind::LessEq:
  case TokenKind::GreaterEq: return 4;
  case TokenKind::Plus:
  case TokenKind::Minus:     return 5;
  case TokenKind::Star:
  case TokenKind::Slash:
  case TokenKind::Percent:   return 6;
  default:                   return -1;
  }
}

ExprPtr makeExpr(ExprKind Kind, const Token &At) {
  auto E = std::make_unique<Expr>(Kind);
  E->Line = At.Line;
  E->Column = At.Column;
  return E;
}

StmtPtr makeStmt(StmtKind Kind, const Token &At) {
  auto S = std::make_unique<Stmt>(Kind);
  S->Line = At.Line;
  S->Column = At.Column;
  return S;
}

std::unique_ptr<TranslationUnit> ParserImpl::run() {
  auto TU = std::make_unique<TranslationUnit>();
  while (!check(TokenKind::Eof)) {
    if (!parseTopLevel(*TU))
      return nullptr;
  }
  return TU;
}

bool ParserImpl::parseTopLevel(TranslationUnit &TU) {
  if (!expect(TokenKind::KwInt, "at top level (every declaration starts "
                                "with 'int')"))
    return false;
  bool IsPtr = match(TokenKind::Star);
  const Token &NameTok = peek();
  if (!expect(TokenKind::Identifier, "after 'int'"))
    return false;
  if (check(TokenKind::LParen)) {
    if (IsPtr) {
      error("functions must return 'int' (pointer returns are not in the "
            "subset)",
            NameTok);
      return false;
    }
    return parseFunction(TU, NameTok);
  }
  return parseGlobal(TU, IsPtr ? Type::makePtr() : Type::makeInt(), NameTok);
}

bool ParserImpl::parseGlobal(TranslationUnit &TU, Type Ty,
                             const Token &NameTok) {
  if (Ty.Kind == TypeKind::Ptr) {
    error("pointer globals are not in the subset (pass arrays as "
          "parameters instead)",
          NameTok);
    return false;
  }
  GlobalDecl G;
  G.Name = NameTok.Text;
  G.Line = NameTok.Line;
  G.Column = NameTok.Column;
  G.Ty = Ty;
  if (match(TokenKind::LBracket)) {
    const Token &SizeTok = peek();
    if (!expect(TokenKind::Number, "as array size"))
      return false;
    if (SizeTok.Value <= 0) {
      error("array size must be positive", SizeTok);
      return false;
    }
    G.Ty = Type::makeArray(static_cast<unsigned>(SizeTok.Value));
    if (!expect(TokenKind::RBracket, "after array size"))
      return false;
  }
  if (match(TokenKind::Assign)) {
    if (G.Ty.Kind == TypeKind::Array) {
      error("array initializers are not in the subset", peek());
      return false;
    }
    bool Negative = match(TokenKind::Minus);
    const Token &ValueTok = peek();
    if (!expect(TokenKind::Number, "as global initializer (globals take "
                                   "constant initializers only)"))
      return false;
    G.Init = Negative ? -ValueTok.Value : ValueTok.Value;
  }
  if (!expect(TokenKind::Semi, "after global declaration"))
    return false;
  TU.Globals.push_back(std::move(G));
  return true;
}

bool ParserImpl::parseFunction(TranslationUnit &TU, const Token &NameTok) {
  FunctionDecl F;
  F.Name = NameTok.Text;
  F.Line = NameTok.Line;
  F.Column = NameTok.Column;
  expect(TokenKind::LParen, "after function name");
  if (!check(TokenKind::RParen)) {
    do {
      if (!expect(TokenKind::KwInt, "to start a parameter"))
        return false;
      ParamDecl P;
      P.Ty = match(TokenKind::Star) ? Type::makePtr() : Type::makeInt();
      const Token &ParamTok = peek();
      if (!expect(TokenKind::Identifier, "as parameter name"))
        return false;
      P.Name = ParamTok.Text;
      P.Line = ParamTok.Line;
      P.Column = ParamTok.Column;
      F.Params.push_back(std::move(P));
    } while (match(TokenKind::Comma));
  }
  if (!expect(TokenKind::RParen, "after parameter list"))
    return false;
  if (!check(TokenKind::LBrace)) {
    error("expected '{' to start the function body (forward declarations "
          "are not needed: calls may reference any function in the file)",
          peek());
    return false;
  }
  F.Body = parseCompound();
  if (!F.Body)
    return false;
  TU.Functions.push_back(std::move(F));
  return true;
}

StmtPtr ParserImpl::parseCompound() {
  const Token &Open = peek();
  if (!expect(TokenKind::LBrace, "to open a block"))
    return nullptr;
  StmtPtr S = makeStmt(StmtKind::Compound, Open);
  while (!check(TokenKind::RBrace)) {
    if (check(TokenKind::Eof)) {
      error("missing '}' before end of file", peek());
      return nullptr;
    }
    StmtPtr Child = parseStmt();
    if (!Child)
      return nullptr;
    S->Body.push_back(std::move(Child));
  }
  advance(); // '}'
  return S;
}

StmtPtr ParserImpl::parseDecl() {
  const Token &IntTok = advance(); // 'int'
  StmtPtr S = makeStmt(StmtKind::Decl, IntTok);
  bool IsPtr = match(TokenKind::Star);
  const Token &NameTok = peek();
  if (!expect(TokenKind::Identifier, "as variable name"))
    return nullptr;
  S->DeclName = NameTok.Text;
  S->DeclTy = IsPtr ? Type::makePtr() : Type::makeInt();
  if (match(TokenKind::LBracket)) {
    if (IsPtr) {
      error("arrays of pointers are not in the subset", NameTok);
      return nullptr;
    }
    const Token &SizeTok = peek();
    if (!expect(TokenKind::Number, "as array size"))
      return nullptr;
    if (SizeTok.Value <= 0) {
      error("array size must be positive", SizeTok);
      return nullptr;
    }
    S->DeclTy = Type::makeArray(static_cast<unsigned>(SizeTok.Value));
    if (!expect(TokenKind::RBracket, "after array size"))
      return nullptr;
  }
  if (match(TokenKind::Assign)) {
    if (S->DeclTy.Kind == TypeKind::Array) {
      error("array initializers are not in the subset", peek());
      return nullptr;
    }
    S->Init = parseExpr();
    if (!S->Init)
      return nullptr;
  }
  if (!expect(TokenKind::Semi, "after declaration"))
    return nullptr;
  return S;
}

StmtPtr ParserImpl::parseStmt() {
  const Token &T = peek();
  DepthScope Scope(*this);
  if (!Scope.deeper(T))
    return nullptr;
  switch (T.Kind) {
  case TokenKind::LBrace:
    return parseCompound();
  case TokenKind::KwInt:
    return parseDecl();
  case TokenKind::Semi:
    advance();
    return makeStmt(StmtKind::Empty, T);
  case TokenKind::KwIf: {
    advance();
    StmtPtr S = makeStmt(StmtKind::If, T);
    if (!expect(TokenKind::LParen, "after 'if'"))
      return nullptr;
    S->E = parseExpr();
    if (!S->E || !expect(TokenKind::RParen, "after if condition"))
      return nullptr;
    S->Then = parseStmt();
    if (!S->Then)
      return nullptr;
    if (match(TokenKind::KwElse)) {
      S->Else = parseStmt();
      if (!S->Else)
        return nullptr;
    }
    return S;
  }
  case TokenKind::KwWhile: {
    advance();
    StmtPtr S = makeStmt(StmtKind::While, T);
    if (!expect(TokenKind::LParen, "after 'while'"))
      return nullptr;
    S->E = parseExpr();
    if (!S->E || !expect(TokenKind::RParen, "after while condition"))
      return nullptr;
    S->LoopBody = parseStmt();
    if (!S->LoopBody)
      return nullptr;
    return S;
  }
  case TokenKind::KwFor: {
    advance();
    StmtPtr S = makeStmt(StmtKind::For, T);
    if (!expect(TokenKind::LParen, "after 'for'"))
      return nullptr;
    if (check(TokenKind::KwInt)) {
      S->ForInit = parseDecl(); // consumes the ';'
      if (!S->ForInit)
        return nullptr;
    } else if (!match(TokenKind::Semi)) {
      const Token &InitTok = peek();
      StmtPtr Init = makeStmt(StmtKind::ExprStmt, InitTok);
      Init->E = parseExpr();
      if (!Init->E || !expect(TokenKind::Semi, "after for initializer"))
        return nullptr;
      S->ForInit = std::move(Init);
    }
    if (!check(TokenKind::Semi)) {
      S->ForCond = parseExpr();
      if (!S->ForCond)
        return nullptr;
    }
    if (!expect(TokenKind::Semi, "after for condition"))
      return nullptr;
    if (!check(TokenKind::RParen)) {
      S->ForStep = parseExpr();
      if (!S->ForStep)
        return nullptr;
    }
    if (!expect(TokenKind::RParen, "after for clauses"))
      return nullptr;
    S->LoopBody = parseStmt();
    if (!S->LoopBody)
      return nullptr;
    return S;
  }
  case TokenKind::KwReturn: {
    advance();
    StmtPtr S = makeStmt(StmtKind::Return, T);
    S->E = parseExpr();
    if (!S->E || !expect(TokenKind::Semi, "after return value (every "
                                          "function returns an int)"))
      return nullptr;
    return S;
  }
  case TokenKind::KwBreak: {
    advance();
    if (!expect(TokenKind::Semi, "after 'break'"))
      return nullptr;
    return makeStmt(StmtKind::Break, T);
  }
  case TokenKind::KwContinue: {
    advance();
    if (!expect(TokenKind::Semi, "after 'continue'"))
      return nullptr;
    return makeStmt(StmtKind::Continue, T);
  }
  default: {
    StmtPtr S = makeStmt(StmtKind::ExprStmt, T);
    S->E = parseExpr();
    if (!S->E || !expect(TokenKind::Semi, "after expression"))
      return nullptr;
    return S;
  }
  }
}

ExprPtr ParserImpl::parseExpr() { return parseAssignment(); }

ExprPtr ParserImpl::parseAssignment() {
  const Token &Start = peek();
  DepthScope Scope(*this);
  if (!Scope.deeper(Start))
    return nullptr;
  ExprPtr Lhs = parseBinary(1);
  if (!Lhs)
    return nullptr;
  if (match(TokenKind::Assign)) {
    ExprPtr Rhs = parseAssignment(); // right-associative
    if (!Rhs)
      return nullptr;
    ExprPtr E = makeExpr(ExprKind::Assign, Start);
    E->Lhs = std::move(Lhs);
    E->Rhs = std::move(Rhs);
    return E;
  }
  return Lhs;
}

ExprPtr ParserImpl::parseBinary(int MinPrec) {
  ExprPtr Lhs = parseUnary();
  if (!Lhs)
    return nullptr;
  // Each operator nests the expression so far one level deeper.
  DepthScope Scope(*this);
  while (true) {
    const Token &Op = peek();
    int Prec = binaryPrecedence(Op.Kind);
    if (Prec < MinPrec)
      return Lhs;
    if (!Scope.deeper(Op))
      return nullptr;
    advance();
    ExprPtr Rhs = parseBinary(Prec + 1);
    if (!Rhs)
      return nullptr;
    ExprPtr E = makeExpr(ExprKind::Binary, Op);
    E->OpText = Op.Text;
    E->Lhs = std::move(Lhs);
    E->Rhs = std::move(Rhs);
    Lhs = std::move(E);
  }
}

ExprPtr ParserImpl::parseUnary() {
  const Token &T = peek();
  if (T.is(TokenKind::Minus) || T.is(TokenKind::Not) ||
      T.is(TokenKind::Star)) {
    DepthScope Scope(*this);
    if (!Scope.deeper(T))
      return nullptr;
    advance();
    ExprPtr Operand = parseUnary();
    if (!Operand)
      return nullptr;
    ExprPtr E = makeExpr(ExprKind::Unary, T);
    E->OpText = T.Text;
    E->Lhs = std::move(Operand);
    return E;
  }
  return parsePostfix();
}

ExprPtr ParserImpl::parsePostfix() {
  ExprPtr E = parsePrimary();
  if (!E)
    return nullptr;
  DepthScope Scope(*this);
  while (check(TokenKind::LBracket)) {
    if (!Scope.deeper(peek()))
      return nullptr;
    const Token &Open = advance();
    ExprPtr Subscript = parseExpr();
    if (!Subscript || !expect(TokenKind::RBracket, "after array subscript"))
      return nullptr;
    ExprPtr Idx = makeExpr(ExprKind::Index, Open);
    Idx->Lhs = std::move(E);
    Idx->Rhs = std::move(Subscript);
    E = std::move(Idx);
  }
  return E;
}

ExprPtr ParserImpl::parsePrimary() {
  const Token &T = peek();
  switch (T.Kind) {
  case TokenKind::Number: {
    advance();
    ExprPtr E = makeExpr(ExprKind::IntLiteral, T);
    E->Value = T.Value;
    return E;
  }
  case TokenKind::Identifier: {
    advance();
    if (match(TokenKind::LParen)) {
      ExprPtr E = makeExpr(ExprKind::Call, T);
      E->Name = T.Text;
      if (!check(TokenKind::RParen)) {
        do {
          ExprPtr Arg = parseExpr();
          if (!Arg)
            return nullptr;
          E->Args.push_back(std::move(Arg));
        } while (match(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen, "after call arguments"))
        return nullptr;
      return E;
    }
    ExprPtr E = makeExpr(ExprKind::VarRef, T);
    E->Name = T.Text;
    return E;
  }
  case TokenKind::LParen: {
    advance();
    ExprPtr E = parseExpr();
    if (!E || !expect(TokenKind::RParen, "to close the parenthesized "
                                         "expression"))
      return nullptr;
    return E;
  }
  default:
    error("expected an expression", T);
    return nullptr;
  }
}

} // namespace

std::unique_ptr<TranslationUnit>
ccra::cc::parse(const std::vector<Token> &Tokens,
                std::vector<Diagnostic> &Diags) {
  return ParserImpl(Tokens, Diags).run();
}
