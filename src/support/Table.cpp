//===- support/Table.cpp --------------------------------------------------===//

#include "support/Table.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

using namespace ccra;

void TextTable::setHeader(std::vector<std::string> Cells) {
  Header = std::move(Cells);
}

void TextTable::addRow(std::vector<std::string> Cells) {
  Rows.push_back(std::move(Cells));
}

/// Returns true if \p Cell looks like a number (so it gets right-aligned).
static bool looksNumeric(const std::string &Cell) {
  if (Cell.empty())
    return false;
  for (char C : Cell)
    if (!std::isdigit(static_cast<unsigned char>(C)) && C != '.' && C != '-' &&
        C != '+' && C != ',' && C != '%' && C != 'e' && C != 'E' && C != 'x')
      return false;
  return true;
}

void TextTable::print(std::ostream &OS) const {
  size_t NumCols = Header.size();
  for (const auto &Row : Rows)
    NumCols = std::max(NumCols, Row.size());
  std::vector<size_t> Widths(NumCols, 0);
  auto Measure = [&](const std::vector<std::string> &Row) {
    for (size_t I = 0; I < Row.size(); ++I)
      Widths[I] = std::max(Widths[I], Row[I].size());
  };
  if (!Header.empty())
    Measure(Header);
  for (const auto &Row : Rows)
    Measure(Row);

  auto Emit = [&](const std::vector<std::string> &Row) {
    for (size_t I = 0; I < NumCols; ++I) {
      const std::string Cell = I < Row.size() ? Row[I] : std::string();
      size_t Pad = Widths[I] - Cell.size();
      if (looksNumeric(Cell))
        OS << std::string(Pad, ' ') << Cell;
      else
        OS << Cell << std::string(Pad, ' ');
      if (I + 1 != NumCols)
        OS << "  ";
    }
    OS << '\n';
  };

  if (!Header.empty()) {
    Emit(Header);
    size_t Total = 0;
    for (size_t W : Widths)
      Total += W;
    OS << std::string(Total + 2 * (NumCols - 1), '-') << '\n';
  }
  for (const auto &Row : Rows)
    Emit(Row);
}

std::string TextTable::formatDouble(double Value, int Precision) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Precision, Value);
  return Buffer;
}

std::string TextTable::formatCount(double Value) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.0f", std::round(Value));
  std::string Digits(Buffer);
  bool Negative = !Digits.empty() && Digits[0] == '-';
  std::string Body = Negative ? Digits.substr(1) : Digits;
  std::string Out;
  int Count = 0;
  for (auto It = Body.rbegin(); It != Body.rend(); ++It) {
    if (Count != 0 && Count % 3 == 0)
      Out.push_back(',');
    Out.push_back(*It);
    ++Count;
  }
  std::reverse(Out.begin(), Out.end());
  return Negative ? "-" + Out : Out;
}
