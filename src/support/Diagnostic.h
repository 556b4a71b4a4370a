//===- support/Diagnostic.h - Source-located diagnostics --------*- C++ -*-===//
///
/// \file
/// The one diagnostic currency shared by every textual frontend in the
/// repo: the `.ccra` IR parser (ir/IRParser.h) and the C-subset compiler
/// (frontend/Frontend.h). A diagnostic carries a 1-based line:column
/// position, the message, and the offending token when one is known, and
/// renders to a single canonical line so `ccra_cc` and `ccra_alloc` errors
/// look the same:
///
/// \code
///   line 4:17: unknown opcode 'bogus'
///   line 12:9: expected ';' after expression (near 'return')
/// \endcode
///
/// Tools prepend the file name themselves ("prog.c: line 12:9: ..."), so
/// the rendered form stays path-free and byte-stable across machines.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SUPPORT_DIAGNOSTIC_H
#define CCRA_SUPPORT_DIAGNOSTIC_H

#include <string>
#include <vector>

namespace ccra {

struct Diagnostic {
  /// 1-based source line; 0 means "no position" (e.g. module-level checks
  /// that run after the whole text has been consumed).
  unsigned Line = 0;
  /// 1-based column of the offending token; 0 means "whole line".
  unsigned Column = 0;
  std::string Message;
  /// The offending token text, when the reporter knows it. Rendered as a
  /// trailing "(near '...')" only when the message itself does not already
  /// quote it.
  std::string Near;

  Diagnostic() = default;
  Diagnostic(unsigned Line, unsigned Column, std::string Message,
             std::string Near = "")
      : Line(Line), Column(Column), Message(std::move(Message)),
        Near(std::move(Near)) {}

  /// "line L:C: message (near 'tok')" — the canonical one-line form. Parts
  /// without a value are dropped: no line -> just the message, no column ->
  /// "line L: message", no token (or a token the message already quotes)
  /// -> no "(near ...)" suffix.
  std::string render() const {
    std::string Out;
    if (Line > 0) {
      Out += "line ";
      Out += std::to_string(Line);
      if (Column > 0) {
        Out += ':';
        Out += std::to_string(Column);
      }
      Out += ": ";
    }
    Out += Message;
    if (!Near.empty() && Message.find("'" + Near + "'") == std::string::npos)
      Out += " (near '" + Near + "')";
    return Out;
  }
};

/// Renders every diagnostic in \p Diags (helper for callers that keep the
/// legacy string-list error interface alive next to the structured one).
inline std::vector<std::string> renderDiagnostics(
    const std::vector<Diagnostic> &Diags) {
  std::vector<std::string> Out;
  Out.reserve(Diags.size());
  for (const Diagnostic &D : Diags)
    Out.push_back(D.render());
  return Out;
}

} // namespace ccra

#endif // CCRA_SUPPORT_DIAGNOSTIC_H
