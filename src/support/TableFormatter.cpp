//===- support/TableFormatter.cpp - Aligned text tables -------------------===//

#include "support/TableFormatter.h"

#include <cassert>
#include <cstdio>

using namespace thinlocks;

TableFormatter::TableFormatter(std::vector<std::string> Headers)
    : Headers(std::move(Headers)) {}

void TableFormatter::addRow(std::vector<std::string> Cells) {
  assert(Cells.size() == Headers.size() && "row width mismatch");
  Rows.push_back(std::move(Cells));
}

void TableFormatter::addSeparator() { Rows.emplace_back(); }

std::string TableFormatter::render() const {
  std::vector<size_t> Widths(Headers.size(), 0);
  for (size_t I = 0; I < Headers.size(); ++I)
    Widths[I] = Headers[I].size();
  for (const auto &Row : Rows)
    for (size_t I = 0; I < Row.size(); ++I)
      if (Row[I].size() > Widths[I])
        Widths[I] = Row[I].size();

  auto renderCell = [&](const std::string &Cell, size_t Col) {
    std::string Out;
    size_t Pad = Widths[Col] - Cell.size();
    if (Col != 0)
      Out.append(Pad, ' ');
    Out += Cell;
    if (Col == 0)
      Out.append(Pad, ' ');
    return Out;
  };

  auto renderSeparator = [&]() {
    std::string Line;
    for (size_t I = 0; I < Widths.size(); ++I) {
      if (I != 0)
        Line += "-+-";
      Line.append(Widths[I], '-');
    }
    Line += '\n';
    return Line;
  };

  std::string Out;
  for (size_t I = 0; I < Headers.size(); ++I) {
    if (I != 0)
      Out += " | ";
    Out += renderCell(Headers[I], I);
  }
  Out += '\n';
  Out += renderSeparator();
  for (const auto &Row : Rows) {
    if (Row.empty()) {
      Out += renderSeparator();
      continue;
    }
    for (size_t I = 0; I < Row.size(); ++I) {
      if (I != 0)
        Out += " | ";
      Out += renderCell(Row[I], I);
    }
    Out += '\n';
  }
  return Out;
}

std::string TableFormatter::formatDouble(double Value, int Decimals) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Decimals, Value);
  return Buffer;
}

std::string TableFormatter::formatWithCommas(uint64_t Value) {
  std::string Digits = std::to_string(Value);
  std::string Out;
  size_t Count = 0;
  for (size_t I = Digits.size(); I-- > 0;) {
    Out.insert(Out.begin(), Digits[I]);
    if (++Count % 3 == 0 && I != 0)
      Out.insert(Out.begin(), ',');
  }
  return Out;
}
