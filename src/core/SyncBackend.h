//===- core/SyncBackend.h - Type-erased protocol adapter -------*- C++ -*-===//
///
/// \file
/// A virtual-dispatch adapter over any SyncProtocol.  The bytecode
/// interpreter and every driver that picks a protocol by registry name
/// switch protocols at runtime (ThinLock vs JDK111 vs IBM112);
/// benchmarks that measure the bare fast path use the concrete protocol
/// types directly instead, so the virtual call here never pollutes a
/// fast-path measurement.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_CORE_SYNCBACKEND_H
#define THINLOCKS_CORE_SYNCBACKEND_H

#include "core/LockProtocol.h"
#include "heap/Object.h"
#include "threads/ThreadContext.h"

#include <cstdint>
#include <memory>

namespace thinlocks {

/// Runtime-polymorphic view of a synchronization protocol.
class SyncBackend {
public:
  virtual ~SyncBackend();

  virtual const char *name() const = 0;
  virtual void lock(Object *Obj, const ThreadContext &Thread) = 0;
  virtual void unlock(Object *Obj, const ThreadContext &Thread) = 0;
  virtual bool unlockChecked(Object *Obj, const ThreadContext &Thread) = 0;
  virtual bool tryLock(Object *Obj, const ThreadContext &Thread) = 0;
  virtual TimedLockStatus tryLockFor(Object *Obj, const ThreadContext &Thread,
                                     int64_t TimeoutNanos) = 0;
  virtual bool holdsLock(Object *Obj,
                         const ThreadContext &Thread) const = 0;
  virtual uint32_t lockDepth(Object *Obj,
                             const ThreadContext &Thread) const = 0;
  virtual WaitStatus wait(Object *Obj, const ThreadContext &Thread,
                          int64_t TimeoutNanos) = 0;
  virtual NotifyStatus notify(Object *Obj, const ThreadContext &Thread) = 0;
  virtual NotifyStatus notifyAll(Object *Obj,
                                 const ThreadContext &Thread) = 0;

  /// Optional capability: ask the protocol to eagerly bind \p Obj to its
  /// heavyweight representation (thin-lock inflation).  \p Thread must
  /// own the monitor (like Object.wait) — hinting an unowned monitor is
  /// a caller bug.  Returns false when the protocol has no such notion;
  /// callers fall back to a portable contention recipe (e.g. a short
  /// timed wait).  The adapter detects an
  /// `inflate(Object *, const ThreadContext &)` member.
  virtual bool inflateHint(Object *Obj, const ThreadContext &Thread) {
    (void)Obj;
    (void)Thread;
    return false;
  }
};

/// Adapts a concrete protocol (held by reference; not owned).
template <SyncProtocol P> class SyncBackendAdapter final : public SyncBackend {
  P &Impl;

public:
  explicit SyncBackendAdapter(P &Impl) : Impl(Impl) {}

  const char *name() const override { return P::protocolName(); }
  void lock(Object *Obj, const ThreadContext &Thread) override {
    Impl.lock(Obj, Thread);
  }
  void unlock(Object *Obj, const ThreadContext &Thread) override {
    Impl.unlock(Obj, Thread);
  }
  bool unlockChecked(Object *Obj, const ThreadContext &Thread) override {
    return Impl.unlockChecked(Obj, Thread);
  }
  bool tryLock(Object *Obj, const ThreadContext &Thread) override {
    return Impl.tryLock(Obj, Thread);
  }
  TimedLockStatus tryLockFor(Object *Obj, const ThreadContext &Thread,
                             int64_t TimeoutNanos) override {
    return Impl.tryLockFor(Obj, Thread, TimeoutNanos);
  }
  bool holdsLock(Object *Obj, const ThreadContext &Thread) const override {
    return Impl.holdsLock(Obj, Thread);
  }
  uint32_t lockDepth(Object *Obj,
                     const ThreadContext &Thread) const override {
    return Impl.lockDepth(Obj, Thread);
  }
  WaitStatus wait(Object *Obj, const ThreadContext &Thread,
                  int64_t TimeoutNanos) override {
    return Impl.wait(Obj, Thread, TimeoutNanos);
  }
  NotifyStatus notify(Object *Obj, const ThreadContext &Thread) override {
    return Impl.notify(Obj, Thread);
  }
  NotifyStatus notifyAll(Object *Obj, const ThreadContext &Thread) override {
    return Impl.notifyAll(Obj, Thread);
  }
  bool inflateHint(Object *Obj, const ThreadContext &Thread) override {
    if constexpr (requires { Impl.inflate(Obj, Thread); }) {
      Impl.inflate(Obj, Thread);
      return true;
    } else {
      (void)Obj;
      (void)Thread;
      return false;
    }
  }
};

/// Convenience factory deducing the protocol type.
template <SyncProtocol P>
std::unique_ptr<SyncBackend> makeSyncBackend(P &Impl) {
  return std::make_unique<SyncBackendAdapter<P>>(Impl);
}

} // namespace thinlocks

#endif // THINLOCKS_CORE_SYNCBACKEND_H
