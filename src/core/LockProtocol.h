//===- core/LockProtocol.h - Common protocol interface ---------*- C++ -*-===//
///
/// \file
/// The interface shared by every synchronization protocol in this library:
/// the thin-lock implementation (the paper's contribution) and the two
/// baselines it is measured against (the JDK 1.1.1 monitor cache and the
/// IBM 1.1.2 hot locks).  Benchmarks are templated over this concept so
/// the fast paths are compared without virtual-dispatch noise; the VM uses
/// the type-erased SyncBackend adapter instead.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_CORE_LOCKPROTOCOL_H
#define THINLOCKS_CORE_LOCKPROTOCOL_H

#include "heap/Object.h"
#include "threads/ThreadContext.h"

#include <concepts>
#include <cstdint>

namespace thinlocks {

/// Result of a wait operation on an object monitor.
enum class WaitStatus {
  Notified, ///< Woken by notify/notifyAll.
  TimedOut, ///< The timeout elapsed first.
  NotOwner, ///< Caller did not own the monitor (IllegalMonitorState).
};

/// Result of a notify/notifyAll operation.
enum class NotifyStatus {
  Ok,       ///< Operation performed (possibly waking nobody).
  NotOwner, ///< Caller did not own the monitor (IllegalMonitorState).
};

/// Outcome of a bounded acquisition attempt (tryLockFor).  Every
/// protocol reads the timeout the same way: a positive one bounds the
/// wait, and a non-positive one makes one attempt and never blocks —
/// there is no "wait forever" value.
enum class TimedLockStatus : uint8_t {
  Acquired, ///< The monitor is now held by the caller.
  TimedOut, ///< Deadline expired; no cycle was confirmed.
  Deadlock, ///< Deadline expired *and* a waits-for cycle through the
            ///< caller was double-confirmed.  Only protocols with a
            ///< waits-for graph (ThinLock) ever report this; the
            ///< baselines and Fissile always degrade to TimedOut.
};

/// The explicit degrade point for protocols *without* a waits-for
/// graph: a bounded acquire either succeeded or timed out — such a
/// protocol has no basis to claim Deadlock, and mis-reporting it would
/// turn generic consumers' precise-abort paths (the txn engine's
/// wait-die policy, the harness tryLockFor plumbing) into spurious
/// aborts.  Every non-thin protocol funnels its tryLockFor result
/// through here; the conformance suite pins the contract
/// (NonThinProtocolsNeverReportDeadlock).
constexpr TimedLockStatus degradeToTimedOut(bool Acquired) {
  return Acquired ? TimedLockStatus::Acquired : TimedLockStatus::TimedOut;
}

/// Compile-time interface every synchronization protocol satisfies.
/// tryLock/tryLockFor are part of the contract: the soak harness's
/// admission ladder and the deadlock-aware slow paths need bounded
/// acquisition from *any* protocol, so a protocol that omits them is
/// rejected at compile time (see the negative check in
/// tests/conformance_test.cpp).
template <typename P>
concept SyncProtocol = requires(P Protocol, Object *Obj,
                                const ThreadContext &Thread,
                                int64_t TimeoutNanos) {
  { Protocol.lock(Obj, Thread) } -> std::same_as<void>;
  { Protocol.unlock(Obj, Thread) } -> std::same_as<void>;
  { Protocol.unlockChecked(Obj, Thread) } -> std::same_as<bool>;
  { Protocol.tryLock(Obj, Thread) } -> std::same_as<bool>;
  {
    Protocol.tryLockFor(Obj, Thread, TimeoutNanos)
  } -> std::same_as<TimedLockStatus>;
  { Protocol.holdsLock(Obj, Thread) } -> std::same_as<bool>;
  { Protocol.lockDepth(Obj, Thread) } -> std::same_as<uint32_t>;
  { Protocol.wait(Obj, Thread, TimeoutNanos) } -> std::same_as<WaitStatus>;
  { Protocol.notify(Obj, Thread) } -> std::same_as<NotifyStatus>;
  { Protocol.notifyAll(Obj, Thread) } -> std::same_as<NotifyStatus>;
  { P::protocolName() } -> std::convertible_to<const char *>;
};

} // namespace thinlocks

#endif // THINLOCKS_CORE_LOCKPROTOCOL_H
