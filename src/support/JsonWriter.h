//===- support/JsonWriter.h - Streaming JSON writer ------------*- C++ -*-===//
///
/// \file
/// The one JSON writer behind every document the project emits: the
/// BENCH_* artifacts and the soak's SLO snapshot.  It streams: keys land
/// in call order, strings are escaped by jsonEscape (which the
/// Chrome-trace emitter shares), integers print exactly, and a double
/// prints with the number of decimals its caller names.  A container
/// opened with Layout::Lines puts each element on a line of its own,
/// indented two spaces per level; an inline container (the default)
/// separates its elements with ", ", so one BENCH row is one line.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_SUPPORT_JSONWRITER_H
#define THINLOCKS_SUPPORT_JSONWRITER_H

#include <cassert>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace thinlocks {

/// Appends \p In to \p Out as the body of a JSON string literal.
inline void jsonEscape(std::string_view In, std::string &Out) {
  for (char C : In) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

class JsonWriter {
public:
  enum class Layout { Inline, Lines };

  JsonWriter &beginObject(Layout L = Layout::Inline) {
    return open('{', '}', L);
  }
  JsonWriter &beginArray(Layout L = Layout::Inline) {
    return open('[', ']', L);
  }

  /// Closes the innermost open object or array.
  JsonWriter &end() {
    assert(!Open.empty() && "end() without an open container");
    Frame Closed = Open.back();
    Open.pop_back();
    if (Closed.Lines && !Closed.Empty)
      newline();
    Out += Closed.Close;
    return *this;
  }

  JsonWriter &key(std::string_view Key) {
    element();
    Out += '"';
    jsonEscape(Key, Out);
    Out += "\": ";
    AfterKey = true;
    return *this;
  }

  JsonWriter &value(std::string_view V) {
    element();
    Out += '"';
    jsonEscape(V, Out);
    Out += '"';
    return *this;
  }
  JsonWriter &value(const char *V) { return value(std::string_view(V)); }
  JsonWriter &value(bool V) {
    element();
    Out += V ? "true" : "false";
    return *this;
  }
  template <std::integral T> JsonWriter &value(T V) {
    element();
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
    return *this;
  }
  /// A double with \p Decimals digits after the point.  JSON has no
  /// spelling for NaN or the infinities, so those render as null.
  JsonWriter &value(double V, int Decimals) {
    element();
    if (!std::isfinite(V)) {
      Out += "null";
      return *this;
    }
    char Buf[352];
    std::to_chars_result R = std::to_chars(
        Buf, Buf + sizeof(Buf), V, std::chars_format::fixed, Decimals);
    assert(R.ec == std::errc() && "too many decimals");
    Out.append(Buf, R.ptr);
    return *this;
  }
  /// A double needs its decimals named (and must not decay to bool).
  JsonWriter &value(double) = delete;

  /// An inline array of \p Values' elements.
  template <class Range> JsonWriter &array(const Range &Values) {
    beginArray();
    for (const auto &V : Values)
      value(V);
    return end();
  }

  template <class... Args>
  JsonWriter &field(std::string_view Key, Args &&...V) {
    key(Key);
    return value(std::forward<Args>(V)...);
  }

  /// \returns the finished document; every container must be closed.
  std::string take() {
    assert(Open.empty() && "document has an unclosed container");
    return std::move(Out);
  }

private:
  struct Frame {
    char Close;
    bool Lines;
    bool Empty = true;
  };

  JsonWriter &open(char OpenChar, char Close, Layout L) {
    element();
    Out += OpenChar;
    // A container inside an inline one stays inline.
    bool Lines = L == Layout::Lines && (Open.empty() || Open.back().Lines);
    Open.push_back({Close, Lines});
    return *this;
  }

  /// Emits the separator that precedes a new element of the innermost
  /// container (nothing for the value that follows a key).
  void element() {
    if (AfterKey) {
      AfterKey = false;
      return;
    }
    if (Open.empty())
      return;
    Frame &Parent = Open.back();
    if (!Parent.Empty)
      Out += Parent.Lines ? "," : ", ";
    Parent.Empty = false;
    if (Parent.Lines)
      newline();
  }

  void newline() {
    Out += '\n';
    Out.append(2 * Open.size(), ' ');
  }

  std::string Out;
  std::vector<Frame> Open;
  bool AfterKey = false;
};

} // namespace thinlocks

#endif // THINLOCKS_SUPPORT_JSONWRITER_H
