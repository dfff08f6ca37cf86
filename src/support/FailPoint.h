//===- support/FailPoint.h - Compile-time-gated fault injection *- C++ -*-===//
///
/// \file
/// Named failure-injection points threaded through the locking hot spots
/// (lost initial CAS, forced preemption mid-spin, widened inflation race
/// windows, monitor-table and thread-registry exhaustion).  The facility
/// has two layers:
///
///  - The *sites* are guarded by the TL_FAILPOINT(Name) macro.  When the
///    library is built without THINLOCKS_FAILPOINTS (the default), the
///    macro is the constant `false` and every site is dead code — the
///    paper's 17-instruction fast path is bit-for-bit unchanged, which
///    bench_fastpath guards.  When built with -DTHINLOCKS_FAILPOINTS=ON
///    a disarmed site costs one relaxed load of a global bitmask.
///
///  - The *registry* (arm/disarm/hit counters/spec parsing) is always
///    compiled, so tests of the control plane run in every build mode;
///    only the sites themselves are conditional.
///
/// Arming: programmatic (failpoint::arm) or via the environment variable
/// THINLOCKS_FAILPOINTS, e.g.
///
///   THINLOCKS_FAILPOINTS="thinlock.initial-cas=oneIn:4,spinwait.preempt=always"
///
/// parsed once at static-initialization time.  Modes: `always`, `times:N`
/// (fire the first N evaluations), `oneIn:N` (fire every Nth evaluation).
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_SUPPORT_FAILPOINT_H
#define THINLOCKS_SUPPORT_FAILPOINT_H

#include "support/Compiler.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace thinlocks {
namespace failpoint {

/// Every injection site in the library.  Keep in sync with the name table
/// in FailPoint.cpp.
enum class Id : uint8_t {
  ThinLockInitialCas,       ///< "thinlock.initial-cas": lose the fast-path CAS.
  SpinWaitPreempt,          ///< "spinwait.preempt": preempt mid-backoff.
  ThinLockInflateRace,      ///< "thinlock.inflate-race": widen publish window.
  MonitorTableExhausted,    ///< "monitortable.exhausted": allocate() fails.
  ThreadRegistryExhausted,  ///< "threadregistry.exhausted": attach() fails.
  ParkSpurious,             ///< "park.spurious": Parker::park returns early.
  ParkingLotTimeoutRace,    ///< "parkinglot.timeout-race": widen the window
                            ///< between a timed park returning and the waiter
                            ///< re-acquiring its bucket, so an unparkOne can
                            ///< capture the timed-out waiter first.
  HotLocksPromoteRace,      ///< "hotlocks.promote-race": widen IBM112's
                            ///< window before the cache mutex.
  NumIds,
};

constexpr unsigned NumIds = static_cast<unsigned>(Id::NumIds);

/// How an armed failpoint decides to fire.
enum class Mode : uint8_t {
  Off,    ///< Never fires.
  Always, ///< Fires on every evaluation.
  Times,  ///< Fires on the first `Arg` evaluations, then goes quiet.
  OneIn,  ///< Fires on every `Arg`-th evaluation (the Arg-th, 2*Arg-th...).
};

/// \returns the stable external name of \p I (used in env specs and
/// diagnostics).
const char *name(Id I);

/// Arms \p I.  \p Arg is the count for Times / the period for OneIn
/// (ignored for Always; a zero Arg disarms).
void arm(Id I, Mode M, uint64_t Arg = 0);

/// Disarms \p I; its hit counter is preserved until re-armed.
void disarm(Id I);

/// Disarms every failpoint and clears all counters (test isolation).
void disarmAll();

/// \returns how many times \p I actually fired since it was last armed.
uint64_t hitCount(Id I);

/// \returns how many times \p I was evaluated (armed, at the site) since
/// last armed.
uint64_t evalCount(Id I);

/// Parses and applies a comma-separated spec, e.g.
/// "thinlock.initial-cas=always,monitortable.exhausted=times:3".
/// \returns false (and sets \p Error) on a malformed spec; valid entries
/// before the error are still applied.
bool armFromSpec(const std::string &Spec, std::string *Error = nullptr);

/// Like armFromSpec, but parses the *whole* spec, applying every valid
/// clause and collecting one message per malformed clause into
/// \p Errors (when non-null).  \returns the number of clauses applied.
/// This is the environment-variable parser: reporting every typo at
/// once beats fixing them one rerun at a time.
size_t armFromSpecCollect(const std::string &Spec,
                          std::vector<std::string> *Errors);

/// Applies the THINLOCKS_FAILPOINTS environment variable, if set.
/// Called automatically during static initialization.  A malformed
/// clause is *fatal*: every error is reported to stderr together with
/// the full list of valid failpoint names, then the process aborts.  A
/// typo'd spec silently arming nothing would make an "armed" test rerun
/// (e.g. the injection-armed conformance pass) vacuously green — fail
/// it loudly at startup instead.
void armFromEnvironment();

/// Evaluates \p I's mode and counters as if at an injection site.
/// \returns true if the failpoint fires.  This is the registry half of
/// TL_FAILPOINT; sites reach it only through the compile-time gate below.
bool evaluate(Id I);

/// Bitmask with bit i set while Id(i) is armed; lets a compiled-in but
/// disarmed site cost a single relaxed load.
extern std::atomic<uint32_t> ArmedMask;

/// \returns true if the library was built with injection sites compiled
/// in (-DTHINLOCKS_FAILPOINTS=ON).  Tests that need a site to actually
/// fire skip themselves when this is false.
constexpr bool compiledIn() {
#if defined(TL_FAILPOINTS_ENABLED) && TL_FAILPOINTS_ENABLED
  return true;
#else
  return false;
#endif
}

#if defined(TL_FAILPOINTS_ENABLED) && TL_FAILPOINTS_ENABLED
inline bool active(Id I) {
  uint32_t Mask = ArmedMask.load(std::memory_order_relaxed);
  if (TL_LIKELY((Mask & (1u << static_cast<unsigned>(I))) == 0))
    return false;
  return evaluate(I);
}
#else
constexpr bool active(Id) { return false; }
#endif

} // namespace failpoint
} // namespace thinlocks

/// Site guard: `if (TL_FAILPOINT(ThinLockInitialCas)) { ...inject... }`.
/// Constant-folds to `if (false)` when failpoints are compiled out.
#define TL_FAILPOINT(NAME)                                                    \
  TL_UNLIKELY(::thinlocks::failpoint::active(::thinlocks::failpoint::Id::NAME))

#endif // THINLOCKS_SUPPORT_FAILPOINT_H
