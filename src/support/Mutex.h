//===- support/Mutex.h - Capability-annotated mutex wrappers ---*- C++ -*-===//
///
/// \file
/// Thin wrappers over std::mutex / std::lock_guard / std::unique_lock
/// that carry the Clang Thread Safety Analysis capability annotations
/// (support/ThreadSafety.h).  All internally-locked subsystems use these
/// instead of the std types so that -Wthread-safety can check their
/// locking discipline; the wrappers are zero-cost (every method is a
/// single forwarded call, and the annotations vanish at runtime).
///
/// Usage mirrors the std types:
///
///   class Table {
///     mutable Mutex Mu;
///     int Count TL_GUARDED_BY(Mu);
///     void refill() TL_REQUIRES(Mu);      // caller holds Mu
///   public:
///     void add() TL_EXCLUDES(Mu) {        // takes Mu itself
///       LockGuard G(Mu);
///       ++Count;
///     }
///   };
///
/// UniqueLock supports the unlock-park-relock pattern the blocking slow
/// paths use (FatLock::awaitGrant, ParkingLot::parkImpl): TSA tracks the
/// lock state through manual unlock()/lock() calls on the scoped object.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_SUPPORT_MUTEX_H
#define THINLOCKS_SUPPORT_MUTEX_H

#include "support/ThreadSafety.h"

#include <cassert>
#include <mutex>

namespace thinlocks {

/// A std::mutex declared as a TSA capability.
class TL_CAPABILITY("mutex") Mutex {
public:
  Mutex() = default;
  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock() TL_ACQUIRE() { Mu.lock(); }
  void unlock() TL_RELEASE() { Mu.unlock(); }
  bool try_lock() TL_TRY_ACQUIRE(true) { return Mu.try_lock(); }

private:
  std::mutex Mu;
};

/// std::lock_guard shape: acquires in the constructor, releases in the
/// destructor, no early unlock.
class TL_SCOPED_CAPABILITY LockGuard {
public:
  explicit LockGuard(Mutex &M) TL_ACQUIRE(M) : Mu(M) { Mu.lock(); }
  ~LockGuard() TL_RELEASE() { Mu.unlock(); }

  LockGuard(const LockGuard &) = delete;
  LockGuard &operator=(const LockGuard &) = delete;

private:
  Mutex &Mu;
};

/// std::unique_lock shape: acquires in the constructor, supports manual
/// unlock()/lock() cycles (the park-outside-the-mutex pattern), and
/// releases in the destructor if still held.
class TL_SCOPED_CAPABILITY UniqueLock {
public:
  explicit UniqueLock(Mutex &M) TL_ACQUIRE(M) : Mu(M), Held(true) {
    Mu.lock();
  }
  ~UniqueLock() TL_RELEASE() {
    if (Held)
      Mu.unlock();
  }

  UniqueLock(const UniqueLock &) = delete;
  UniqueLock &operator=(const UniqueLock &) = delete;

  /// Releases the mutex before a blocking call (park) so wakers are not
  /// convoyed behind it.
  void unlock() TL_RELEASE() {
    assert(Held && "unlock of a lock not held");
    Held = false;
    Mu.unlock();
  }

  /// Re-acquires after a blocking call.
  void lock() TL_ACQUIRE() {
    assert(!Held && "recursive lock of a held UniqueLock");
    Mu.lock();
    Held = true;
  }

  bool owns_lock() const { return Held; }

private:
  Mutex &Mu;
  bool Held;
};

} // namespace thinlocks

#endif // THINLOCKS_SUPPORT_MUTEX_H
