//===- obs/LockEvents.h - Typed lock-event taxonomy ------------*- C++ -*-===//
///
/// \file
/// The event vocabulary of the observability layer (DESIGN.md §10): every
/// interesting transition a lock can make — a contended acquisition, an
/// inflation with its cause, a deflation, a park/wake round trip, a
/// wait/notify, a confirmed deadlock — as a fixed-width record cheap
/// enough to write from the contention slow paths.
///
/// Recording is gated on one process-global mode flag: when tracing is
/// off (the default) every record call is a single relaxed load and a
/// predicted-not-taken branch, and the thin fast path contains no obs
/// code at all — the paper's 17-instruction sequence is byte-for-byte
/// unchanged, which bench_fastpath guards.  When tracing is on, a record
/// is four relaxed stores and one release bump into the calling thread's
/// own ring (obs/EventRing.h); no shared cache line is ever written.
///
/// Events are packed into four 64-bit words:
///   W0: timestamp (monotonic nanoseconds)
///   W1: object address
///   W2: kind(8) | thread index(16) | class index(24) | extra(16)
///   W3: argument (duration in nanoseconds, inflate cause, ...)
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_OBS_LOCKEVENTS_H
#define THINLOCKS_OBS_LOCKEVENTS_H

#include "support/Compiler.h"

#include <atomic>
#include <chrono>
#include <cstdint>

namespace thinlocks {
namespace obs {

/// What happened.  Keep in sync with eventKindName() in ChromeTrace.cpp.
enum class EventKind : uint8_t {
  None = 0,
  /// A slow-path acquisition that met contention.  Arg = nanoseconds
  /// from slow-path entry to acquisition; Extra = entry-queue length
  /// observed at acquisition (0 while still thin).
  ContendedAcquire,
  /// Thin word replaced by a fat lock.  Arg = InflateCause.
  Inflate,
  /// Fat lock retired at quiescence; word returned to thin-unlocked.
  Deflate,
  /// One ParkingLot park on the thin word.  Arg = parked nanoseconds;
  /// Extra = ParkResult (0 invalid / 1 unparked / 2 timed out).
  Park,
  /// A directed wake was consumed after blocking.  Arg = unpark-to-
  /// resume nanoseconds (the Parker's wake-latency sample).
  Wake,
  /// One Object.wait() round trip.  Arg = waited nanoseconds;
  /// Extra = 1 if notified, 0 if timed out.
  Wait,
  /// Object.notify().  Extra = 1 if a waiter was morphed.
  Notify,
  /// Object.notifyAll().  Extra = number of waiters morphed.
  NotifyAll,
  /// The owner-graph walker double-confirmed a waits-for cycle through
  /// the recording thread.  Extra = cycle length (threads).
  Deadlock,
  /// The adaptive policy engine published or expired a decision.
  /// Arg = packed LockPolicy; Extra bit 0 = published (0 = erased),
  /// bit 1 = class-level decision (ObjectAddr is 0 for those).
  PolicyDecision,
};

/// \returns true for the kinds that span time (ContendedAcquire, Park,
/// Wake, Wait): they are stamped at their end and carry their duration
/// in nanoseconds in Arg.  Every other kind is an instant.
constexpr bool isDurationKind(EventKind Kind) {
  switch (Kind) {
  case EventKind::ContendedAcquire:
  case EventKind::Park:
  case EventKind::Wake:
  case EventKind::Wait:
    return true;
  default:
    return false;
  }
}

/// Why a lock inflated (the Arg of EventKind::Inflate).  The first three
/// are the paper's §2.3 causes; Emergency is the MonitorTable-exhaustion
/// degradation; Hint is the explicit pre-inflation API.
enum class InflateCause : uint8_t {
  Contention = 0,
  Overflow = 1,
  Wait = 2,
  Emergency = 3,
  Hint = 4,
};

/// \returns the stable display name of \p Cause.
const char *inflateCauseName(InflateCause Cause);

/// \returns the stable display name of \p Kind.
const char *eventKindName(EventKind Kind);

/// One decoded event (the unpacked form of a ring slot).
struct LockEvent {
  uint64_t TimeNanos = 0;   ///< Monotonic stamp at the *end* of the event.
  uint64_t ObjectAddr = 0;  ///< Address of the synchronized object.
  uint64_t Arg = 0;         ///< Kind-specific (usually a duration in ns).
  uint32_t ClassIndex = 0;  ///< The object's class-registry index.
  uint16_t ThreadIndex = 0; ///< Recording thread's 15-bit index.
  uint16_t Extra = 0;       ///< Kind-specific small payload.
  EventKind Kind = EventKind::None;

  /// Packs the identity fields into the W2 meta word.
  static uint64_t packMeta(EventKind Kind, uint16_t ThreadIndex,
                           uint32_t ClassIndex, uint16_t Extra) {
    return (static_cast<uint64_t>(Kind) << 56) |
           (static_cast<uint64_t>(ThreadIndex) << 40) |
           (static_cast<uint64_t>(ClassIndex & 0xFFFFFFu) << 16) |
           static_cast<uint64_t>(Extra);
  }

  /// Rebuilds an event from its four packed words.
  static LockEvent unpack(uint64_t Time, uint64_t Addr, uint64_t Meta,
                          uint64_t Arg) {
    LockEvent E;
    E.TimeNanos = Time;
    E.ObjectAddr = Addr;
    E.Arg = Arg;
    E.Kind = static_cast<EventKind>(Meta >> 56);
    E.ThreadIndex = static_cast<uint16_t>(Meta >> 40);
    E.ClassIndex = static_cast<uint32_t>((Meta >> 16) & 0xFFFFFFu);
    E.Extra = static_cast<uint16_t>(Meta);
    return E;
  }
};

/// \returns when \p E began: a duration event starts Arg nanoseconds
/// before its record time (clamped at 0), an instant at its record time.
inline uint64_t startNanosOf(const LockEvent &E) {
  if (!isDurationKind(E.Kind))
    return E.TimeNanos;
  return E.Arg <= E.TimeNanos ? E.TimeNanos - E.Arg : 0;
}

/// The process-global tracing mode flag.  Off by default; flipped by
/// setTracing().  Sites read it with one relaxed load.
extern std::atomic<uint32_t> TracingMode;

/// \returns true while lock-event tracing is enabled.  This is the only
/// cost an event site pays when tracing is off.
TL_ALWAYS_INLINE bool tracingEnabled() {
  return TL_UNLIKELY(TracingMode.load(std::memory_order_relaxed) != 0);
}

/// Enables or disables lock-event tracing process-wide.  Toggling is
/// safe at any time; events racing the flip are either recorded or not,
/// both of which are valid traces.
void setTracing(bool Enabled);

/// \returns a monotonic nanosecond timestamp (steady_clock based — the
/// same clock every deadline in the library uses).
inline uint64_t monotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace obs
} // namespace thinlocks

#endif // THINLOCKS_OBS_LOCKEVENTS_H
