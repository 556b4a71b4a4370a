//===- support/Table.h - Aligned text tables and CSV output -----*- C++ -*-===//
///
/// \file
/// The benchmark harness prints every reproduced table and figure as an
/// aligned text table. TextTable collects rows of strings and pads columns.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SUPPORT_TABLE_H
#define CCRA_SUPPORT_TABLE_H

#include <ostream>
#include <string>
#include <vector>

namespace ccra {

/// Accumulates rows of cells and renders them with aligned columns.
class TextTable {
public:
  /// Sets the header row. Optional; when present a separator line is drawn
  /// under it.
  void setHeader(std::vector<std::string> Cells);

  /// Appends a data row.
  void addRow(std::vector<std::string> Cells);

  /// Number of data rows added so far.
  size_t numRows() const { return Rows.size(); }

  /// Renders the table with two-space column gaps. Numeric-looking cells
  /// are right-aligned, text cells left-aligned.
  void print(std::ostream &OS) const;

  /// Formats a double with \p Precision digits after the decimal point.
  static std::string formatDouble(double Value, int Precision = 2);

  /// Formats a large count with thousands separators (matches the paper's
  /// "120,000,000"-style axes).
  static std::string formatCount(double Value);

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace ccra

#endif // CCRA_SUPPORT_TABLE_H
