//===- park/Parker.h - Per-thread blocking primitive -----------*- C++ -*-===//
///
/// \file
/// The per-thread half of the unified waiting substrate.  Every attached
/// thread owns exactly one Parker (wired through ThreadRegistry attach,
/// reachable as ThreadContext::parker()); every blocking path in the
/// library — fat-lock entry queues, wait sets, thin-word contention
/// parking in the ParkingLot — blocks by parking the calling thread's own
/// Parker and is woken by a *directed* unpark of that Parker.  This
/// replaces the previous per-lock condition variables (FatLock's entry
/// condvar plus one condvar per wait node) with one kernel wait object
/// per thread and gives every waker a handle to wake exactly the thread
/// it means to — no notify_all herds.
///
/// Semantics are the classic one-token parker (HotSpot's os::PlatformEvent,
/// java.util.concurrent's LockSupport, Rust's std Parker):
///
///  - unpark() deposits a token (tokens do not accumulate) and wakes the
///    owner if it is blocked;
///  - park() consumes a pending token and returns immediately, or blocks
///    until a token arrives;
///  - parkUntil() additionally gives up at a deadline.
///
/// park() may return *spuriously* (a stale token from an abandoned
/// handoff, an interrupted futex wait, or the `park.spurious` failpoint).
/// Every call site must therefore re-check its guarded condition in a
/// loop — which they need for correct monitor semantics anyway.  The
/// failpoint makes that discipline testable: arming `park.spurious`
/// injects spurious returns at the one place every blocking path funnels
/// through.
///
/// On Linux the parker blocks on a futex over its state word; elsewhere
/// (and under ThreadSanitizer, which does not model raw futex syscalls)
/// it falls back to an internal mutex + condition variable.  Either way
/// the cross-thread happens-before edge is carried by the acquire/release
/// operations on State, not by the sleeping mechanism.
///
/// Wake-latency instrumentation: unpark() stamps a monotonic timestamp
/// before depositing the token; a park() that actually blocked computes
/// the unpark-to-wake delta on return.  The lock layers feed these deltas
/// into LockStats' wake count, mean and maximum.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_PARK_PARKER_H
#define THINLOCKS_PARK_PARKER_H

#include "support/Compiler.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#if defined(__SANITIZE_THREAD__)
#define THINLOCKS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define THINLOCKS_TSAN 1
#endif
#endif

#if defined(__linux__) && !defined(THINLOCKS_TSAN) &&                         \
    !defined(THINLOCKS_PARKER_NO_FUTEX)
#define THINLOCKS_PARKER_FUTEX 1
#endif

namespace thinlocks {

/// One-token, one-owner blocking primitive.  Exactly one thread (the
/// owner) may call the park methods; any thread may call unpark().  The
/// Parker must outlive every in-flight unpark() targeting it — satisfied
/// by embedding it in ThreadInfo, whose storage lives for the registry's
/// lifetime.
class Parker {
public:
  /// Why a park call returned.
  enum class WakeReason : uint8_t {
    Unparked, ///< A token was consumed (deposited before or during the park).
    TimedOut, ///< parkUntil()'s deadline passed with no token.
    Spurious, ///< Woke with neither token nor deadline; re-check and re-park.
  };

  Parker() = default;
  Parker(const Parker &) = delete;
  Parker &operator=(const Parker &) = delete;

  /// Blocks until a token is available (or a spurious wake).  Consumes
  /// the token.  Never returns TimedOut.
  WakeReason park();

  /// Like park(), but gives up at \p Deadline.
  WakeReason parkUntil(std::chrono::steady_clock::time_point Deadline);

  /// Convenience: parkUntil(now + Nanos).
  WakeReason parkFor(int64_t Nanos);

  /// Deposits the token and wakes the owner if it is parked.  Tokens do
  /// not accumulate: unparking an already-unparked Parker is a no-op
  /// beyond refreshing the wake timestamp.  Safe from any thread.
  void unpark();

  /// Drops any stale token (and wake bookkeeping).  Called by
  /// ThreadRegistry::attach() so a recycled thread index does not inherit
  /// the previous owner's pending wake.  Owner-thread only.
  void reset();

  /// \returns the unpark-to-return latency, in nanoseconds, of the most
  /// recent park call that consumed a token *after actually blocking*
  /// (0 if the most recent token was consumed without blocking).
  /// Owner-thread only.
  uint64_t lastBlockedWakeNanos() const { return LastBlockedWakeNanos; }

  /// \returns how many park calls blocked (reached the kernel) over this
  /// Parker's lifetime.  Owner-thread reads are exact.
  uint64_t blockedParkCount() const { return BlockedParks; }

private:
  enum : uint32_t { Empty = 0, Token = 1, Parked = 2 };

  WakeReason parkImpl(bool HasDeadline,
                      std::chrono::steady_clock::time_point Deadline);
  /// Consumes the token found in \p Observed state; records wake latency
  /// when \p Blocked.
  WakeReason consumeToken(bool Blocked);

  /// Futex wait / condvar wait over State == Parked.
  void blockWait(bool HasDeadline,
                 std::chrono::steady_clock::time_point Deadline);

  std::atomic<uint32_t> State{Empty};
  /// Stamped by unpark() before the token is published (release on State
  /// orders it); read by the owner after consuming the token (acquire).
  std::atomic<uint64_t> UnparkStampNanos{0};
  /// Owner-thread-only bookkeeping.
  uint64_t LastBlockedWakeNanos = 0;
  uint64_t BlockedParks = 0;
#if !defined(THINLOCKS_PARKER_FUTEX)
  std::mutex Mutex;
  std::condition_variable Cv;
#endif
};

} // namespace thinlocks

#endif // THINLOCKS_PARK_PARKER_H
