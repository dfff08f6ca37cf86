//===- support/FailPoint.cpp - Compile-time-gated fault injection ---------===//

#include "support/FailPoint.h"

#include "support/Fatal.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace thinlocks;
using namespace thinlocks::failpoint;

namespace {

/// Control block for one failpoint.  Mode/Arg are written under no lock:
/// arming is test-harness activity and each field is individually atomic;
/// a site racing with arm() sees either the old or the new configuration,
/// both of which are valid.
struct State {
  std::atomic<uint8_t> ModeValue{static_cast<uint8_t>(Mode::Off)};
  std::atomic<uint64_t> Arg{0};
  std::atomic<uint64_t> Evals{0};
  std::atomic<uint64_t> Hits{0};
};

std::array<State, NumIds> States;

constexpr const char *Names[NumIds] = {
    "thinlock.initial-cas",      "spinwait.preempt",
    "thinlock.inflate-race",     "monitortable.exhausted",
    "threadregistry.exhausted",  "park.spurious",
    "parkinglot.timeout-race",   "hotlocks.promote-race",
};

State &stateOf(Id I) { return States[static_cast<unsigned>(I)]; }

bool findByName(const std::string &Name, Id &Out) {
  for (unsigned I = 0; I < NumIds; ++I)
    if (Name == Names[I]) {
      Out = static_cast<Id>(I);
      return true;
    }
  return false;
}

/// Applies one "name=mode[:arg]" clause.
bool armOne(const std::string &Clause, std::string *Error) {
  size_t Eq = Clause.find('=');
  if (Eq == std::string::npos) {
    if (Error)
      *Error = "missing '=' in \"" + Clause + "\"";
    return false;
  }
  Id Point;
  if (!findByName(Clause.substr(0, Eq), Point)) {
    if (Error)
      *Error = "unknown failpoint \"" + Clause.substr(0, Eq) + "\"";
    return false;
  }
  std::string ModeSpec = Clause.substr(Eq + 1);
  size_t Colon = ModeSpec.find(':');
  std::string ModeName = ModeSpec.substr(0, Colon);
  uint64_t ModeArg = 0;
  if (Colon != std::string::npos) {
    char *End = nullptr;
    ModeArg = std::strtoull(ModeSpec.c_str() + Colon + 1, &End, 10);
    if (End == nullptr || *End != '\0') {
      if (Error)
        *Error = "bad argument in \"" + Clause + "\"";
      return false;
    }
  }
  if (ModeName == "always") {
    arm(Point, Mode::Always);
  } else if (ModeName == "times") {
    arm(Point, Mode::Times, ModeArg);
  } else if (ModeName == "oneIn") {
    arm(Point, Mode::OneIn, ModeArg);
  } else if (ModeName == "off") {
    disarm(Point);
  } else {
    if (Error)
      *Error = "unknown mode \"" + ModeName + "\"";
    return false;
  }
  return true;
}

/// Parses THINLOCKS_FAILPOINTS exactly once, before main() runs, so a
/// ctest invocation can arm sites without the program's cooperation.
struct EnvironmentArmer {
  EnvironmentArmer() { armFromEnvironment(); }
} ArmFromEnvAtStartup;

} // namespace

std::atomic<uint32_t> thinlocks::failpoint::ArmedMask{0};

const char *thinlocks::failpoint::name(Id I) {
  return Names[static_cast<unsigned>(I)];
}

void thinlocks::failpoint::arm(Id I, Mode M, uint64_t Arg) {
  if (M == Mode::Off || ((M == Mode::Times || M == Mode::OneIn) && Arg == 0)) {
    disarm(I);
    return;
  }
  State &S = stateOf(I);
  S.Arg.store(Arg, std::memory_order_relaxed);
  S.Evals.store(0, std::memory_order_relaxed);
  S.Hits.store(0, std::memory_order_relaxed);
  S.ModeValue.store(static_cast<uint8_t>(M), std::memory_order_relaxed);
  ArmedMask.fetch_or(1u << static_cast<unsigned>(I),
                     std::memory_order_release);
}

void thinlocks::failpoint::disarm(Id I) {
  ArmedMask.fetch_and(~(1u << static_cast<unsigned>(I)),
                      std::memory_order_release);
  stateOf(I).ModeValue.store(static_cast<uint8_t>(Mode::Off),
                             std::memory_order_relaxed);
}

void thinlocks::failpoint::disarmAll() {
  for (unsigned I = 0; I < NumIds; ++I) {
    disarm(static_cast<Id>(I));
    State &S = States[I];
    S.Evals.store(0, std::memory_order_relaxed);
    S.Hits.store(0, std::memory_order_relaxed);
  }
}

uint64_t thinlocks::failpoint::hitCount(Id I) {
  return stateOf(I).Hits.load(std::memory_order_relaxed);
}

uint64_t thinlocks::failpoint::evalCount(Id I) {
  return stateOf(I).Evals.load(std::memory_order_relaxed);
}

bool thinlocks::failpoint::evaluate(Id I) {
  State &S = stateOf(I);
  Mode M = static_cast<Mode>(S.ModeValue.load(std::memory_order_relaxed));
  if (M == Mode::Off)
    return false;
  uint64_t Eval = S.Evals.fetch_add(1, std::memory_order_relaxed) + 1;
  bool Fire = false;
  switch (M) {
  case Mode::Off:
    break;
  case Mode::Always:
    Fire = true;
    break;
  case Mode::Times:
    Fire = Eval <= S.Arg.load(std::memory_order_relaxed);
    break;
  case Mode::OneIn:
    Fire = Eval % S.Arg.load(std::memory_order_relaxed) == 0;
    break;
  }
  if (Fire)
    S.Hits.fetch_add(1, std::memory_order_relaxed);
  return Fire;
}

bool thinlocks::failpoint::armFromSpec(const std::string &Spec,
                                       std::string *Error) {
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    size_t End = Comma == std::string::npos ? Spec.size() : Comma;
    if (End > Pos && !armOne(Spec.substr(Pos, End - Pos), Error))
      return false;
    Pos = End + 1;
  }
  return true;
}

size_t thinlocks::failpoint::armFromSpecCollect(
    const std::string &Spec, std::vector<std::string> *Errors) {
  size_t Applied = 0;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    size_t End = Comma == std::string::npos ? Spec.size() : Comma;
    if (End > Pos) {
      std::string Error;
      if (armOne(Spec.substr(Pos, End - Pos), &Error))
        ++Applied;
      else if (Errors)
        Errors->push_back(std::move(Error));
    }
    Pos = End + 1;
  }
  return Applied;
}

void thinlocks::failpoint::armFromEnvironment() {
  const char *Spec = std::getenv("THINLOCKS_FAILPOINTS");
  if (!Spec || *Spec == '\0')
    return;
  std::vector<std::string> Errors;
  armFromSpecCollect(Spec, &Errors);
  if (Errors.empty())
    return;
  // A malformed clause means some intended injection is NOT armed; an
  // "armed" test rerun would pass without testing anything.  Report every
  // problem (and the vocabulary) once, then die.
  std::fprintf(stderr, "thinlocks: malformed THINLOCKS_FAILPOINTS=\"%s\"\n",
               Spec);
  for (const std::string &Error : Errors)
    std::fprintf(stderr, "thinlocks:   %s\n", Error.c_str());
  std::fprintf(stderr,
               "thinlocks: valid failpoints (modes: always, times:N, "
               "oneIn:N, off):\n");
  for (unsigned I = 0; I < NumIds; ++I)
    std::fprintf(stderr, "thinlocks:   %s\n", Names[I]);
  fatalError("refusing to run with a malformed THINLOCKS_FAILPOINTS "
             "spec (%zu bad clause(s))",
             Errors.size());
}
