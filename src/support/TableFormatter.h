//===- support/TableFormatter.h - Aligned text tables ----------*- C++ -*-===//
///
/// \file
/// Produces column-aligned plain-text tables.  The benchmark harnesses use
/// this to print rows in the same layout as the paper's Tables 1-2 and the
/// series behind Figures 3-6.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_SUPPORT_TABLEFORMATTER_H
#define THINLOCKS_SUPPORT_TABLEFORMATTER_H

#include <cstdint>
#include <string>
#include <vector>

namespace thinlocks {

/// Accumulates rows of string cells and renders them with every column
/// padded to its widest cell: column 0 (the row label) left-aligned, the
/// rest (the numbers) right-aligned.
class TableFormatter {
public:
  /// Creates a table with the given column headers.
  explicit TableFormatter(std::vector<std::string> Headers);

  /// Appends one row; the row must have exactly as many cells as there are
  /// headers.
  void addRow(std::vector<std::string> Cells);

  /// Appends a horizontal separator row.
  void addSeparator();

  /// Renders the whole table, including the header and a separator under
  /// it, as a single string ending in a newline.
  std::string render() const;

  /// Formats a double with \p Decimals digits after the point.
  static std::string formatDouble(double Value, int Decimals = 2);

  /// Formats an integer with thousands separators ("12,975,639").
  static std::string formatWithCommas(uint64_t Value);

private:
  std::vector<std::string> Headers;
  // A row with no cells encodes a separator.
  std::vector<std::vector<std::string>> Rows;
};

} // namespace thinlocks

#endif // THINLOCKS_SUPPORT_TABLEFORMATTER_H
