//===- baselines/MonitorOps.h - The ten monitor operations -----*- C++ -*-===//
///
/// \file
/// The ten monitor operations of the FatLock-backed baselines (JDK111,
/// IBM112 and EagerMonitor), written once.  The baselines differ only in
/// where an object's monitor lives: a globally locked cache, a hot table
/// in front of that cache, or a sharded table.  So each operation is one
/// step that differs (find this object's FatLock, pinned where the
/// protocol pins) around a FatLock call that does not.
///
/// A baseline derives from MonitorOps<Self> (CRTP, so no virtual call)
/// and supplies that step and its release:
///
///   Ref resolveMonitor(Object *Obj, Lookup How);
///   void releaseMonitor(const Ref &M);
///
/// Ref carries a `FatLock *Lock`, null when \p Obj has no monitor and
/// \p How did not ask for one; releaseMonitor runs only for a non-null
/// Lock, after the FatLock call.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_BASELINES_MONITOROPS_H
#define THINLOCKS_BASELINES_MONITOROPS_H

#include "core/LockProtocol.h"
#include "fatlock/FatLock.h"
#include "heap/Object.h"
#include "threads/ThreadContext.h"

#include <cassert>
#include <cstdint>
#include <optional>

namespace thinlocks {

/// Why an operation looks up its object's monitor.
enum class Lookup : uint8_t {
  /// lock, tryLock, tryLockFor: a missing monitor is made.
  Acquire,
  /// unlock, wait, notify, notifyAll: a missing monitor means the caller
  /// does not own it.
  Existing,
  /// holdsLock, lockDepth: never makes a monitor and counts no lookup.
  Peek,
};

template <typename Derived> class MonitorOps {
public:
  void lock(Object *Obj, const ThreadContext &Thread) {
    acquire(Obj, Thread, std::nullopt);
  }

  void unlock(Object *Obj, const ThreadContext &Thread) {
    [[maybe_unused]] bool Ok = unlockChecked(Obj, Thread);
    assert(Ok && "unlock of a monitor the thread does not own");
  }

  bool unlockChecked(Object *Obj, const ThreadContext &Thread) {
    return onExisting(Obj, false, [&](FatLock &Lock) {
      return Lock.unlock(Thread) != FatLock::ReleaseResult::NotOwner;
    });
  }

  bool tryLock(Object *Obj, const ThreadContext &Thread) {
    return acquire(Obj, Thread, /*TimeoutNanos=*/0);
  }

  TimedLockStatus tryLockFor(Object *Obj, const ThreadContext &Thread,
                             int64_t TimeoutNanos) {
    // No baseline keeps a waits-for graph, so any failure degrades to
    // TimedOut (see degradeToTimedOut in core/LockProtocol.h).
    return degradeToTimedOut(acquire(Obj, Thread, TimeoutNanos));
  }

  bool holdsLock(Object *Obj, const ThreadContext &Thread) const {
    auto M = mutableSelf().resolveMonitor(Obj, Lookup::Peek);
    if (!M.Lock)
      return false;
    bool Held = M.Lock->heldBy(Thread);
    mutableSelf().releaseMonitor(M);
    return Held;
  }

  uint32_t lockDepth(Object *Obj, const ThreadContext &Thread) const {
    auto M = mutableSelf().resolveMonitor(Obj, Lookup::Peek);
    if (!M.Lock)
      return 0;
    uint32_t Depth = M.Lock->heldBy(Thread) ? M.Lock->holdCount() : 0;
    mutableSelf().releaseMonitor(M);
    return Depth;
  }

  WaitStatus wait(Object *Obj, const ThreadContext &Thread,
                  int64_t TimeoutNanos = -1) {
    return onExisting(Obj, WaitStatus::NotOwner, [&](FatLock &Lock) {
      return Lock.wait(Thread, TimeoutNanos);
    });
  }

  NotifyStatus notify(Object *Obj, const ThreadContext &Thread) {
    return onExisting(Obj, NotifyStatus::NotOwner, [&](FatLock &Lock) {
      return Lock.notify(Thread, /*All=*/false);
    });
  }

  NotifyStatus notifyAll(Object *Obj, const ThreadContext &Thread) {
    return onExisting(Obj, NotifyStatus::NotOwner, [&](FatLock &Lock) {
      return Lock.notify(Thread, /*All=*/true);
    });
  }

private:
  Derived &self() { return static_cast<Derived &>(*this); }
  /// The two queries pin and unpin like any lookup; that changes no state
  /// a caller can observe, so they stay const.
  Derived &mutableSelf() const {
    return const_cast<Derived &>(static_cast<const Derived &>(*this));
  }

  /// The acquisition behind lock, tryLock and tryLockFor: FatLock::lock
  /// on \p Obj's monitor, waiting at most \p TimeoutNanos (none =
  /// unbounded; non-positive = one attempt).  \returns whether \p Thread
  /// acquired it.
  bool acquire(Object *Obj, const ThreadContext &Thread,
               std::optional<int64_t> TimeoutNanos) {
    auto M = self().resolveMonitor(Obj, Lookup::Acquire);
    FatLock::TimedResult Result = M.Lock->lock(Thread, TimeoutNanos);
    self().releaseMonitor(M);
    assert(Result != FatLock::TimedResult::Retired &&
           "baseline monitors are never retired");
    return Result == FatLock::TimedResult::Acquired;
  }

  /// The operations that need a monitor to exist (unlock, wait,
  /// notify, notifyAll): runs \p Op on \p Obj's monitor, whose FatLock
  /// call judges ownership, or \returns \p NoMonitor when \p Obj has
  /// none — then \p Thread cannot own it.
  template <typename Result, typename Fn>
  Result onExisting(Object *Obj, Result NoMonitor, Fn &&Op) {
    auto M = self().resolveMonitor(Obj, Lookup::Existing);
    if (!M.Lock)
      return NoMonitor;
    Result R = Op(*M.Lock);
    self().releaseMonitor(M);
    return R;
  }
};

} // namespace thinlocks

#endif // THINLOCKS_BASELINES_MONITOROPS_H
