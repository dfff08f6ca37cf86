//===- fatlock/FatLock.h - Heavy-weight Java monitor -----------*- C++ -*-===//
///
/// \file
/// The "pre-existing heavy-weight system" the paper layers thin locks on
/// (§2.1): a multi-word monitor holding the owning thread, a nested lock
/// count, a FIFO entry queue, and a wait set, supporting the full Java
/// monitor semantics (lock, unlock, wait, notify, notifyAll).
///
/// The count here is "the number of locks (not the number of locks minus
/// one, as in a thin lock)" — paper §2.3.
///
/// Blocking is built on the waiting substrate (park/Parker.h): the entry
/// queue and the wait set are IntrusiveFifos of stack-allocated nodes,
/// each naming the blocked thread's Parker, and every wake is a *direct
/// handoff* — the releaser (or notifier) dequeues exactly the thread
/// whose turn it is and unparks it.  The previous implementation's
/// condition variables broadcast every release to every queued thread
/// (notify_all, with a ticket check deciding who proceeds); here only
/// the FIFO head is ever woken, so a release costs one futex wake
/// regardless of queue depth.  Entry order is FIFO: the queue head has
/// exclusive claim on a free monitor, and lock()'s non-queueing takes
/// (the uncontended one and a non-positive timeout's one attempt) stand
/// down whenever the queue is non-empty — no barging.  Only a bounded
/// lock() gives up its place, when it times out.  A waiter that must act
/// while it waits (ThinLockImpl's deadlock watchdog) waits through
/// lockTicking() instead, whose tick runs while its node stays queued.
///
/// The surface is two calls, lock() (or lockTicking()) and unlock();
/// every protocol built on FatLock (ThinLock, JDK111, IBM112,
/// EagerMonitor) enters and leaves through them.
///
/// notify *morphs* waiters instead of waking them: the wait node is
/// moved from the wait set onto the entry-queue tail and the thread is
/// granted the monitor by a handoff like any other entrant.  A
/// notified thread therefore blocks exactly once per wait/notify round
/// trip (a naive notify wakes it a first time only to park again behind
/// the notifier's hold), and notifyAll of N waiters issues zero wakes up
/// front instead of N — the releases that grant the monitor wake each in
/// FIFO turn.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_FATLOCK_FATLOCK_H
#define THINLOCKS_FATLOCK_FATLOCK_H

#include "core/LockProtocol.h"
#include "park/IntrusiveFifo.h"
#include "support/Mutex.h"
#include "threads/ThreadContext.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <type_traits>

namespace thinlocks {

class LockStats;
class Parker;

/// A heavy-weight monitor.  Entry is FIFO (queue-ordered); the wait set
/// is FIFO (notify wakes the longest-waiting thread).  All identities are
/// 15-bit thread indices from a ThreadRegistry; an unattached context
/// (index 0) owns nothing.
class FatLock {
public:
  /// Outcome of an acquisition.
  enum class TimedResult { Acquired, TimedOut, Retired };

  /// Result of an unlock, which may retire the monitor (deflation
  /// support; see ThinLockImpl's DeflationPolicy).
  enum class ReleaseResult { Released, RetiredNow, NotOwner };

  FatLock() = default;
  FatLock(const FatLock &) = delete;
  FatLock &operator=(const FatLock &) = delete;

  /// Acquires the monitor for \p Thread with \p Holds holds, the one
  /// entry of every acquisition:
  ///  - the owner adds \p Holds to its hold count (recursion, and an
  ///    emergency inflation onto a monitor it already holds);
  ///  - a free monitor with an empty entry queue is taken at once;
  ///  - otherwise a non-positive \p TimeoutNanos refuses at once without
  ///    queueing (TimedOut), and any other caller queues FIFO behind
  ///    earlier arrivals, for at most \p TimeoutNanos when one is given.
  ///    A timed-out entrant dequeues itself so later entrants are not
  ///    stranded.
  /// \returns Retired, acquiring nothing, once deflation has retired the
  /// monitor: the caller must re-read the object's lock word and start
  /// over.  Retirement needs an empty entry queue, so once this call has
  /// queued it cannot be stranded.
  TimedResult lock(const ThreadContext &Thread,
                   std::optional<int64_t> TimeoutNanos = std::nullopt,
                   uint32_t Holds = 1) TL_EXCLUDES(Mu) {
    return lockImpl(Thread, TimeoutNanos, Holds, nullptr);
  }

  /// lock() of one hold without a deadline, for a waiter that must act
  /// while it waits: after every \p TickNanos spent in the entry queue,
  /// \p OnTick runs with the monitor's mutex released (so it may read
  /// this monitor and others) and the waiter still queued in its place.
  /// A tick that returns keeps waiting; only the grant (or Retired, if
  /// the monitor retired before the call queued) ends the call.
  template <typename TickFn>
  TimedResult lockTicking(const ThreadContext &Thread, int64_t TickNanos,
                          TickFn &&OnTick) TL_EXCLUDES(Mu) {
    using Fn = std::remove_reference_t<TickFn>;
    const Tick Ticker{TickNanos,
                      [](void *Ctx) { (*static_cast<Fn *>(Ctx))(); }, &OnTick};
    return lockImpl(Thread, std::nullopt, 1, &Ticker);
  }

  /// Releases one hold; the monitor is freed when the count reaches zero
  /// and handed to the entry-queue head.  With \p MayRetire, releasing
  /// the last hold of a completely quiescent monitor (no queued
  /// entrants, no waiters) retires it instead: a retired monitor answers
  /// every later lock() with Retired, and the caller finishes the
  /// deflation (MonitorTable::finishDeflation).  Whether a monitor may
  /// retire at all is the caller's to ask (MonitorTable::mayRetire).
  /// \returns NotOwner, leaving the monitor untouched, when \p Thread is
  /// not the owner — the hook for IllegalMonitorStateException.
  ReleaseResult unlock(const ThreadContext &Thread, bool MayRetire = false)
      TL_EXCLUDES(Mu);

  /// \returns true once the monitor has been retired by deflation.
  bool isRetired() const TL_EXCLUDES(Mu);

  /// Third-party retirement for the adaptive engine's speculative
  /// deflation scan: retires the monitor iff it is fully quiescent
  /// (unowned, empty entry queue, no waiters, not already retired).
  /// Unlike unlock() the caller is NOT the owner — quiescence is the
  /// entire claim.  On success the caller finishes
  /// the deflation, exactly as after ReleaseResult::RetiredNow.
  bool retireIfQuiescent() TL_EXCLUDES(Mu);

  /// Java Object.wait(): releases *all* holds, sleeps until notified or
  /// until \p TimeoutNanos elapses (negative = wait forever), then
  /// reacquires the monitor with the original hold count before returning.
  /// \returns NotOwner, changing nothing, when \p Thread does not own the
  /// monitor.
  WaitStatus wait(const ThreadContext &Thread, int64_t TimeoutNanos = -1)
      TL_EXCLUDES(Mu);

  /// Java Object.notify() (\p All false) and notifyAll() (\p All true):
  /// morphs the longest waiter, or every waiter, onto the entry queue.
  /// \returns NotOwner, changing nothing, when \p Thread does not own the
  /// monitor.  When \p Morphed is given it receives how many waiters
  /// moved (the lock-event trace records the count).
  NotifyStatus notify(const ThreadContext &Thread, bool All,
                      uint32_t *Morphed = nullptr) TL_EXCLUDES(Mu);

  /// Routes wake-handoff latency samples (unpark-to-resume nanoseconds,
  /// measured by the Parkers) into \p Stats' wake count, mean and max.
  /// Set by ThinLockImpl at inflation; null (the default) disables
  /// recording.  The sink must outlive the monitor's last use.
  void setStatsSink(LockStats *Stats) {
    StatsSink.store(Stats, std::memory_order_relaxed);
  }

  /// \returns true if \p Thread currently owns this monitor.
  bool heldBy(const ThreadContext &Thread) const TL_EXCLUDES(Mu);

  /// \returns the owner's thread index, or 0 if unowned (racy snapshot).
  uint16_t ownerIndex() const TL_EXCLUDES(Mu);

  /// \returns the owner's current hold count (racy snapshot).
  uint32_t holdCount() const TL_EXCLUDES(Mu);

  /// \returns the number of threads blocked trying to enter.
  uint32_t entryQueueLength() const TL_EXCLUDES(Mu);

  /// \returns the number of threads in the wait set.
  uint32_t waitSetSize() const TL_EXCLUDES(Mu);

private:
  /// One blocked thread, stack-allocated in the blocking call: queued in
  /// the entry queue (lock, wait's reacquire) or in the wait set (wait),
  /// never both at once — notify moves a waiter's node from the wait set
  /// to the entry-queue tail (wait morphing), and the thread keeps
  /// sleeping on the same Parker until the handoff that grants it.  All
  /// fields are guarded by Mu (stack nodes cannot carry a per-instance
  /// TL_GUARDED_BY; the REQUIRES annotations on every function that
  /// touches them enforce it).
  struct Waiter {
    Parker *Pk = nullptr;
    Waiter *Next = nullptr;
    bool Notified = false;
  };

  /// \returns true when \p Thread owns the monitor; an unattached
  /// context (index 0) owns nothing, even a free monitor.
  bool ownedBy(const ThreadContext &Thread) const TL_REQUIRES(Mu) {
    return Thread.isValid() && Owner == Thread.index();
  }
  /// \returns the Parker to hand the monitor to (the queue head's), or
  /// null when the queue is empty.  Called by releasers with Owner == 0.
  Parker *entryHandoffTarget() const TL_REQUIRES(Mu) {
    return EntryQueue.empty() ? nullptr : EntryQueue.front()->Pk;
  }
  /// \returns true when \p Node holds the exclusive claim on the free
  /// monitor (no owner, first in line).
  bool claimable(const Waiter *Node) const TL_REQUIRES(Mu) {
    return Owner == 0 && EntryQueue.front() == Node;
  }
  /// Dequeues \p Node (the head), installs \p Index as owner, and feeds
  /// the wake-latency sample to the stats sink.
  void grantTo(Waiter *Node, uint16_t Index) TL_REQUIRES(Mu);

  using Clock = std::chrono::steady_clock;

  /// lockTicking()'s callback, type-erased: Run(Context) every
  /// PeriodNanos of an entry wait.
  struct Tick {
    int64_t PeriodNanos;
    void (*Run)(void *Context);
    void *Context;
  };

  /// lock() and lockTicking(); \p Ticker (null for lock()) comes only
  /// without a timeout.
  TimedResult lockImpl(const ThreadContext &Thread,
                       std::optional<int64_t> TimeoutNanos, uint32_t Holds,
                       const Tick *Ticker) TL_EXCLUDES(Mu);
  // The entry path of every non-recursive acquire: takes a monitor that
  // is free with an empty queue at once, without reading the clock;
  // refuses a non-positive \p TimeoutNanos otherwise; else queues and
  // waits in awaitGrant() for at most \p TimeoutNanos (none =
  // unbounded).  \returns false on refusal or timeout.  Guard holds Mu
  // on entry and on return.
  bool acquireSlow(UniqueLock &Guard, const ThreadContext &Thread,
                   std::optional<int64_t> TimeoutNanos, const Tick *Ticker)
      TL_REQUIRES(Mu);
  // The one entry-queue wait: parks until the queued \p Node is the
  // claimable head and grants it the monitor, or, once \p Deadline has
  // passed, dequeues \p Node, passes on any handoff it absorbed, and
  // \returns false.  A \p Ticker runs once per period waited, with
  // Guard dropped and \p Node still queued.  Guard is dropped around
  // each park.
  bool awaitGrant(UniqueLock &Guard, Waiter &Node, uint16_t Index,
                  std::optional<Clock::time_point> Deadline,
                  const Tick *Ticker) TL_REQUIRES(Mu);
  void recordWakeLatency(const Parker *Pk);

  mutable Mutex Mu;
  uint16_t Owner TL_GUARDED_BY(Mu) = 0;
  bool Retired TL_GUARDED_BY(Mu) = false;
  uint32_t Hold TL_GUARDED_BY(Mu) = 0;
  /// Threads blocked on entry.  A free monitor belongs to the head;
  /// releasers wake exactly that thread.
  IntrusiveFifo<Waiter> EntryQueue TL_GUARDED_BY(Mu);
  /// The wait set; notify() morphs the head.  A thread inside wait() is
  /// always in one of the two queues or the owner whenever Mu is free, so
  /// the queues alone tell retirement whether anyone still uses the
  /// monitor.
  IntrusiveFifo<Waiter> WaitSet TL_GUARDED_BY(Mu);
  /// Destination for wake-handoff latency samples (null = don't record).
  /// Atomic, not guarded: set once at inflation, read by releasers.
  std::atomic<LockStats *> StatsSink{nullptr};
};

} // namespace thinlocks

#endif // THINLOCKS_FATLOCK_FATLOCK_H
