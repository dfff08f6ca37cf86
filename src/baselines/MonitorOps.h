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
    auto M = self().resolveMonitor(Obj, Lookup::Acquire);
    M.Lock->lock(Thread);
    self().releaseMonitor(M);
  }

  void unlock(Object *Obj, const ThreadContext &Thread) {
    [[maybe_unused]] bool Ok = unlockChecked(Obj, Thread);
    assert(Ok && "unlock of a monitor the thread does not own");
  }

  bool unlockChecked(Object *Obj, const ThreadContext &Thread) {
    auto M = self().resolveMonitor(Obj, Lookup::Existing);
    if (!M.Lock)
      return false;
    bool Ok = M.Lock->unlockChecked(Thread);
    self().releaseMonitor(M);
    return Ok;
  }

  bool tryLock(Object *Obj, const ThreadContext &Thread) {
    auto M = self().resolveMonitor(Obj, Lookup::Acquire);
    bool Ok = M.Lock->tryLock(Thread);
    self().releaseMonitor(M);
    return Ok;
  }

  TimedLockStatus tryLockFor(Object *Obj, const ThreadContext &Thread,
                             int64_t TimeoutNanos) {
    auto M = self().resolveMonitor(Obj, Lookup::Acquire);
    FatLock::TimedResult Result = M.Lock->lockIfLiveFor(Thread, TimeoutNanos);
    self().releaseMonitor(M);
    // No baseline retires a monitor while an operation holds it, and none
    // keeps a waits-for graph, so any failure degrades to TimedOut (see
    // degradeToTimedOut in core/LockProtocol.h).
    return degradeToTimedOut(Result == FatLock::TimedResult::Acquired);
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
    FatLock::WaitResult Result{};
    if (!withOwnedMonitor(Obj, Thread, [&](FatLock &Lock) {
          Result = Lock.wait(Thread, TimeoutNanos);
        }))
      return WaitStatus::NotOwner;
    return Result == FatLock::WaitResult::Notified ? WaitStatus::Notified
                                                   : WaitStatus::TimedOut;
  }

  NotifyStatus notify(Object *Obj, const ThreadContext &Thread) {
    return withOwnedMonitor(Obj, Thread,
                            [&](FatLock &Lock) { Lock.notify(Thread); })
               ? NotifyStatus::Ok
               : NotifyStatus::NotOwner;
  }

  NotifyStatus notifyAll(Object *Obj, const ThreadContext &Thread) {
    return withOwnedMonitor(Obj, Thread,
                            [&](FatLock &Lock) { Lock.notifyAll(Thread); })
               ? NotifyStatus::Ok
               : NotifyStatus::NotOwner;
  }

private:
  Derived &self() { return static_cast<Derived &>(*this); }
  /// The two queries pin and unpin like any lookup; that changes no state
  /// a caller can observe, so they stay const.
  Derived &mutableSelf() const {
    return const_cast<Derived &>(static_cast<const Derived &>(*this));
  }

  /// Runs \p Op on \p Obj's monitor if \p Thread owns it.  \returns false
  /// (IllegalMonitorState) if it does not.
  template <typename Fn>
  bool withOwnedMonitor(Object *Obj, const ThreadContext &Thread, Fn &&Op) {
    auto M = self().resolveMonitor(Obj, Lookup::Existing);
    if (!M.Lock)
      return false;
    bool Owner = M.Lock->heldBy(Thread);
    if (Owner)
      Op(*M.Lock);
    self().releaseMonitor(M);
    return Owner;
  }
};

} // namespace thinlocks

#endif // THINLOCKS_BASELINES_MONITOROPS_H
