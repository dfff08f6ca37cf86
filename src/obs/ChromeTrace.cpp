//===- obs/ChromeTrace.cpp - trace_event JSON exporter --------------------===//

#include "obs/ChromeTrace.h"

#include "heap/ClassInfo.h"
#include "support/JsonWriter.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <memory>

using namespace thinlocks;
using namespace thinlocks::obs;

namespace {

/// Microseconds with sub-microsecond precision, as trace_event wants.
std::string microsOf(uint64_t Nanos) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03llu",
                static_cast<unsigned long long>(Nanos / 1000),
                static_cast<unsigned long long>(Nanos % 1000));
  return Buf;
}

} // namespace

std::string obs::toChromeTraceJson(const std::vector<LockEvent> &Events,
                                   const ClassRegistry *Classes) {
  return toChromeTraceJson(Events, std::vector<TraceSpan>(), Classes);
}

std::string obs::toChromeTraceJson(const std::vector<LockEvent> &Events,
                                   const std::vector<TraceSpan> &Spans,
                                   const ClassRegistry *Classes) {
  // Rebase to the earliest start so the viewer timeline begins at 0.
  uint64_t Base = UINT64_MAX;
  for (const LockEvent &E : Events)
    Base = std::min(Base, startNanosOf(E));
  for (const TraceSpan &S : Spans)
    Base = std::min(Base, S.StartNanos);
  if (Base == UINT64_MAX)
    Base = 0;

  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  for (const LockEvent &E : Events) {
    if (E.Kind == EventKind::None)
      continue;
    if (!First)
      Out += ",";
    First = false;
    Out += "{\"name\":\"";
    Out += eventKindName(E.Kind);
    Out += "\",\"cat\":\"lock\",\"ph\":\"";
    Out += isDurationKind(E.Kind) ? "X" : "i";
    Out += "\",\"ts\":";
    Out += microsOf(startNanosOf(E) - Base);
    if (isDurationKind(E.Kind)) {
      Out += ",\"dur\":";
      Out += microsOf(E.Arg);
    } else {
      Out += ",\"s\":\"t\"";
    }
    Out += ",\"pid\":1,\"tid\":";
    Out += std::to_string(E.ThreadIndex);
    char Addr[32];
    std::snprintf(Addr, sizeof(Addr), "0x%llx",
                  static_cast<unsigned long long>(E.ObjectAddr));
    Out += ",\"args\":{\"obj\":\"";
    Out += Addr;
    Out += "\",\"class\":";
    if (Classes) {
      Out += "\"";
      jsonEscape(Classes->classAt(E.ClassIndex).Name, Out);
      Out += "\"";
    } else {
      Out += std::to_string(E.ClassIndex);
    }
    if (E.Kind == EventKind::Inflate) {
      Out += ",\"cause\":\"";
      Out += inflateCauseName(static_cast<InflateCause>(E.Arg));
      Out += "\"";
    }
    if (E.Kind == EventKind::ContendedAcquire) {
      Out += ",\"queue\":";
      Out += std::to_string(E.Extra);
    }
    Out += "}}";
  }
  for (const TraceSpan &S : Spans) {
    if (!First)
      Out += ",";
    First = false;
    uint64_t End = std::max(S.EndNanos, S.StartNanos);
    Out += "{\"name\":\"";
    jsonEscape(S.Name, Out);
    Out += "\",\"cat\":\"session\",\"ph\":\"X\",\"ts\":";
    Out += microsOf(S.StartNanos - Base);
    Out += ",\"dur\":";
    Out += microsOf(End - S.StartNanos);
    Out += ",\"pid\":1,\"tid\":";
    Out += std::to_string(S.Tid);
    Out += ",\"args\":{";
    bool FirstArg = true;
    for (const auto &Arg : S.Args) {
      if (!FirstArg)
        Out += ",";
      FirstArg = false;
      Out += "\"";
      jsonEscape(Arg.first, Out);
      Out += "\":\"";
      jsonEscape(Arg.second, Out);
      Out += "\"";
    }
    Out += "}}";
  }
  Out += "]}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Minimal validating JSON parser (no dependencies).
//===----------------------------------------------------------------------===//

namespace {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type Kind = Type::Null;
  double Number = 0;
  std::string Str;
  std::shared_ptr<JsonArray> Array;
  std::shared_ptr<JsonObject> Object;

  bool isString() const { return Kind == Type::String; }
  bool isNumber() const { return Kind == Type::Number; }
};

/// Recursive-descent parser over the whole input; fails on trailing
/// garbage.  Depth-limited so a hostile input cannot smash the stack.
class JsonParser {
public:
  JsonParser(const std::string &In, std::string *Error)
      : In(In), Error(Error) {}

  bool parse(JsonValue &Out) {
    if (!parseValue(Out, 0))
      return false;
    skipSpace();
    if (Pos != In.size())
      return fail("trailing characters after JSON value");
    return true;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  bool fail(const std::string &Message) {
    if (Error && Error->empty())
      *Error = Message + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipSpace() {
    while (Pos < In.size() &&
           (In[Pos] == ' ' || In[Pos] == '\t' || In[Pos] == '\n' ||
            In[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos >= In.size() || In[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipSpace();
    if (Pos >= In.size())
      return fail("unexpected end of input");
    char C = In[Pos];
    if (C == '{')
      return parseObject(Out, Depth);
    if (C == '[')
      return parseArray(Out, Depth);
    if (C == '"') {
      Out.Kind = JsonValue::Type::String;
      return parseString(Out.Str);
    }
    if (C == '-' || (C >= '0' && C <= '9'))
      return parseNumber(Out);
    if (In.compare(Pos, 4, "true") == 0) {
      Pos += 4;
      Out.Kind = JsonValue::Type::Bool;
      Out.Number = 1;
      return true;
    }
    if (In.compare(Pos, 5, "false") == 0) {
      Pos += 5;
      Out.Kind = JsonValue::Type::Bool;
      return true;
    }
    if (In.compare(Pos, 4, "null") == 0) {
      Pos += 4;
      Out.Kind = JsonValue::Type::Null;
      return true;
    }
    return fail("unexpected character");
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return fail("expected '\"'");
    while (Pos < In.size()) {
      char C = In[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= In.size())
        return fail("unterminated escape");
      char E = In[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > In.size())
          return fail("truncated \\u escape");
        for (unsigned I = 0; I < 4; ++I)
          if (!std::isxdigit(static_cast<unsigned char>(In[Pos + I])))
            return fail("bad \\u escape");
        // Validation only: the decoded code point is not needed.
        Out += '?';
        Pos += 4;
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < In.size() && In[Pos] == '-')
      ++Pos;
    while (Pos < In.size() &&
           (std::isdigit(static_cast<unsigned char>(In[Pos])) ||
            In[Pos] == '.' || In[Pos] == 'e' || In[Pos] == 'E' ||
            In[Pos] == '+' || In[Pos] == '-'))
      ++Pos;
    char *End = nullptr;
    std::string Text = In.substr(Start, Pos - Start);
    double Value = std::strtod(Text.c_str(), &End);
    if (End == Text.c_str() || *End != '\0')
      return fail("malformed number");
    Out.Kind = JsonValue::Type::Number;
    Out.Number = Value;
    return true;
  }

  bool parseArray(JsonValue &Out, unsigned Depth) {
    consume('[');
    Out.Kind = JsonValue::Type::Array;
    Out.Array = std::make_shared<JsonArray>();
    skipSpace();
    if (consume(']'))
      return true;
    for (;;) {
      JsonValue Element;
      if (!parseValue(Element, Depth + 1))
        return false;
      Out.Array->push_back(std::move(Element));
      if (consume(']'))
        return true;
      if (!consume(','))
        return fail("expected ',' or ']' in array");
    }
  }

  bool parseObject(JsonValue &Out, unsigned Depth) {
    consume('{');
    Out.Kind = JsonValue::Type::Object;
    Out.Object = std::make_shared<JsonObject>();
    skipSpace();
    if (consume('}'))
      return true;
    for (;;) {
      skipSpace();
      std::string Key;
      if (!parseString(Key))
        return false;
      if (!consume(':'))
        return fail("expected ':' in object");
      JsonValue Value;
      if (!parseValue(Value, Depth + 1))
        return false;
      (*Out.Object)[Key] = std::move(Value);
      if (consume('}'))
        return true;
      if (!consume(','))
        return fail("expected ',' or '}' in object");
    }
  }

  const std::string &In;
  std::string *Error;
  size_t Pos = 0;
};

bool schemaFail(std::string *Error, const std::string &Message) {
  if (Error && Error->empty())
    *Error = Message;
  return false;
}

} // namespace

bool obs::validateChromeTraceJson(const std::string &Json,
                                  std::string *Error) {
  if (Error)
    Error->clear();
  JsonValue Root;
  JsonParser Parser(Json, Error);
  if (!Parser.parse(Root))
    return false;
  if (Root.Kind != JsonValue::Type::Object)
    return schemaFail(Error, "top level is not an object");
  auto Events = Root.Object->find("traceEvents");
  if (Events == Root.Object->end())
    return schemaFail(Error, "missing \"traceEvents\"");
  if (Events->second.Kind != JsonValue::Type::Array)
    return schemaFail(Error, "\"traceEvents\" is not an array");
  size_t Index = 0;
  for (const JsonValue &E : *Events->second.Array) {
    std::string Where = "traceEvents[" + std::to_string(Index++) + "]";
    if (E.Kind != JsonValue::Type::Object)
      return schemaFail(Error, Where + " is not an object");
    const JsonObject &Obj = *E.Object;
    auto Need = [&](const char *Key) -> const JsonValue * {
      auto It = Obj.find(Key);
      return It == Obj.end() ? nullptr : &It->second;
    };
    const JsonValue *Name = Need("name");
    if (!Name || !Name->isString())
      return schemaFail(Error, Where + " lacks a string \"name\"");
    const JsonValue *Ph = Need("ph");
    if (!Ph || !Ph->isString() || Ph->Str.size() != 1)
      return schemaFail(Error,
                        Where + " lacks a one-character string \"ph\"");
    for (const char *Key : {"ts", "pid", "tid"}) {
      const JsonValue *V = Need(Key);
      if (!V || !V->isNumber())
        return schemaFail(Error, Where + " lacks a numeric \"" +
                                     std::string(Key) + "\"");
    }
    if (Ph->Str == "X") {
      const JsonValue *Dur = Need("dur");
      if (!Dur || !Dur->isNumber() || Dur->Number < 0)
        return schemaFail(Error,
                          Where + " (\"X\") lacks a non-negative \"dur\"");
    }
  }
  return true;
}
