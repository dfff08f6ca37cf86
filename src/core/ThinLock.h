//===- core/ThinLock.h - The thin lock protocol ----------------*- C++ -*-===//
///
/// \file
/// The paper's contribution: monitors implemented in 24 bits of the
/// object header, layered as "a veneer over the existing heavy-weight
/// locking facilities" (the FatLock/MonitorTable substrate).
///
/// Protocol summary (paper §2.3):
///  - lock: one compare-and-swap of (header bits) -> (my shifted index |
///    header bits).  Success means the object was unlocked; the count
///    field (holds-1) is already correct at zero.
///  - nested lock: the XOR check recognizes "thin, mine, count < 255";
///    the count is incremented with a plain store — no atomic needed,
///    because only the owner ever writes an owned thin lock word.
///  - unlock: compare against "mine, count 0" and plain-store the header
///    bits back; nested unlock decrements with a plain store.
///  - contention: the acquirer spin-waits (with backoff and yields) for
///    the word to become unlocked, CASes it to itself, and *inflates*:
///    allocates a fat lock, transfers its hold, and publishes
///    (shape bit | monitor index).  The paper keeps inflation permanent;
///    DeflationPolicy::WhenQuiescent and the adaptive engine's speculative
///    scan (MonitorTable::deflateIfQuiescent) may return a quiescent fat
///    lock to thin.
///  - count overflow (257th hold) and wait() also inflate.
///
/// Robustness layers beyond the paper:
///  - MonitorTable exhaustion degrades to the shared emergency monitor
///    instead of asserting (see inflateOwned);
///  - contention publishes waits-for edges and runs a deadlock watchdog
///    (core/Deadlock.h) that reports the cycle before aborting;
///  - tryLockFor() bounds an acquisition and distinguishes TimedOut from
///    a confirmed Deadlock;
///  - failpoint sites (support/FailPoint.h) let tests force the rare
///    interleavings; they compile to nothing in normal builds.
///
/// ThinLockImpl is templated over a fence/unlock policy (core/Variants.h)
/// so the paper's §3.5 tradeoff variants share one implementation.
/// ThinLockManager (= ThinLockImpl<DynamicPolicy>) is the configuration
/// the paper shipped and the one examples and the VM use.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_CORE_THINLOCK_H
#define THINLOCKS_CORE_THINLOCK_H

#include "core/Deadlock.h"
#include "core/LockProtocol.h"
#include "core/LockStats.h"
#include "core/LockWord.h"
#include "core/Variants.h"
#include "fatlock/MonitorTable.h"
#include "heap/Object.h"
#include "obs/EventRing.h"
#include "park/ParkingLot.h"
#include "support/Compiler.h"
#include "support/FailPoint.h"
#include "support/Fatal.h"
#include "support/SpinWait.h"
#include "threads/ThreadContext.h"
#include "threads/ThreadRegistry.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>

#if defined(THINLOCKS_FASTPATH_GUARD_PROBE)
/// Negative-test seam for tools/lint/fastpath_guard.py: an opaque
/// external call compiled into the lock/unlock fast path so the guard
/// demonstrably fails on an object built with this macro (see
/// tests/fastpath_guard_test.sh).  Never defined in real builds.
extern "C" void thinlocksGuardProbeExternalCall();
#define TL_FASTPATH_GUARD_PROBE() thinlocksGuardProbeExternalCall()
#else
#define TL_FASTPATH_GUARD_PROBE() ((void)0)
#endif

namespace thinlocks {

/// Whether inflated locks may be deflated back to thin.
///
/// The paper keeps inflation permanent: "This discipline prevents
/// thrashing between the thin and fat states.  It also considerably
/// simplifies the implementation."  WhenQuiescent implements the
/// follow-up direction (deflation at quiescence, cf. Onodera &
/// Kawachiya's Tasuki locks): when the last hold of a fat lock is
/// released with an empty entry queue and wait set, the monitor is
/// *retired* and the object's word returns to thin-unlocked.  Threads
/// holding a stale fat word bounce off the retired monitor and re-read
/// the word.  The bench_deflation ablation measures both sides of the
/// paper's tradeoff: recovery of thin-lock speed after one contention
/// burst vs. inflate/deflate thrashing under repeated contention.
enum class DeflationPolicy : uint8_t { Never, WhenQuiescent };

/// Tuning for the deadlock watchdog layered on the contention escalation
/// ladder (pause -> yield -> park; see SpinWait, whose one ladder every
/// slow path escalates on).
struct ContentionOptions {
  /// On a confirmed cycle in lock(): terminate with the formatted report
  /// (true), or record it in LockStats and keep waiting (false — for
  /// systems that prefer a hung thread to a dead process).
  bool AbortOnDeadlock = true;
  /// Thin-word contention: parked rounds between the watchdog's cycle
  /// walks.  At the default 2ms park cap, 512 parks is roughly one
  /// second blocked.  (Fat-lock waits run the watchdog once per
  /// ThinLockImpl::WatchdogSliceNanos slice.)
  uint64_t WatchdogParkPeriod = 512;
};

/// Thin-lock protocol over a MonitorTable, parameterized by a fence /
/// unlock policy.
template <typename Policy> class ThinLockImpl {
public:
  /// \param Monitors fat-lock table used once objects inflate.
  /// \param Stats optional instrumentation sink; null disables recording.
  /// \param Deflation whether fat locks retire at quiescence (the paper's
  /// discipline is Never).
  /// \param Options deadlock-watchdog tuning.
  explicit ThinLockImpl(MonitorTable &Monitors, LockStats *Stats = nullptr,
                        DeflationPolicy Deflation = DeflationPolicy::Never,
                        ContentionOptions Options = ContentionOptions())
      : Monitors(Monitors), Stats(Stats), Deflation(Deflation),
        Options(Options) {}

  ThinLockImpl(const ThinLockImpl &) = delete;
  ThinLockImpl &operator=(const ThinLockImpl &) = delete;

  static const char *protocolName() { return Policy::Name; }

  /// Acquires \p Obj's monitor for \p Thread (recursively if already
  /// held).  The paper's 17-instruction fast path is the inline portion.
  TL_ALWAYS_INLINE void lock(Object *Obj, const ThreadContext &Thread) {
    assert(Thread.isValid() && "locking with an unattached thread");
    TL_FASTPATH_GUARD_PROBE();
    std::atomic<uint32_t> &Word = Obj->lockWord();
    // Old value per §2.3.1: load the lock word and mask to the header
    // bits — i.e. guess "unlocked".
    uint32_t Old =
        Word.load(std::memory_order_relaxed) & lockword::HeaderBitsMask;
    uint32_t Desired = Old | Thread.shiftedIndex();
    bool Acquired;
    if (TL_FAILPOINT(ThinLockInitialCas)) {
      // Injected CAS failure: behave exactly like losing the race — the
      // hardware CAS would have reloaded the current word into Old.
      Old = Word.load(std::memory_order_relaxed);
      Acquired = false;
    } else {
      Acquired = Word.compare_exchange_strong(Old, Desired,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed);
    }
    if (TL_LIKELY(Acquired)) {
      Policy::afterAcquireFence();
      if (TL_UNLIKELY(Stats != nullptr))
        Stats->recordFastPathAcquire();
      return;
    }
    // The failed CAS loaded the current word into Old.  §2.3.3: check
    // the next most likely case — nested locking by the owner — inline,
    // and bump the count with a plain store (owner-only discipline; no
    // fence needed, we are already inside the critical section).
    if (TL_LIKELY(lockword::canNestInline(Old, Thread.shiftedIndex()))) {
      Word.store(Old + lockword::CountUnit, std::memory_order_relaxed);
      if (TL_UNLIKELY(Stats != nullptr))
        Stats->recordAcquire(lockword::countOf(Old) + 2);
      return;
    }
    lockSlow(Obj, Thread);
  }

  /// Releases one hold of \p Obj's monitor.  Asserts ownership; the VM
  /// uses unlockChecked() instead to surface IllegalMonitorState.
  TL_ALWAYS_INLINE void unlock(Object *Obj, const ThreadContext &Thread) {
    TL_FASTPATH_GUARD_PROBE();
    std::atomic<uint32_t> &Word = Obj->lockWord();
    uint32_t Value = Word.load(std::memory_order_relaxed);
    uint32_t Shifted = Thread.shiftedIndex();
    if (TL_LIKELY(lockword::isSingleHoldByOwner(Value, Shifted))) {
      // §2.3.2: owner-only discipline makes a plain store sufficient.
      Policy::beforeReleaseFence();
      storeRelease(Word, Value, Value & lockword::HeaderBitsMask);
      if (TL_UNLIKELY(Stats != nullptr))
        Stats->recordRelease();
      return;
    }
    // Nested unlock (§2.3.3): thin, ours, count > 0 — decrement with a
    // plain store.  The monitor stays held, so no release fence either.
    if (TL_LIKELY(lockword::isThinOwnedBy(Value, Shifted))) {
      Word.store(Value - lockword::CountUnit, std::memory_order_relaxed);
      if (TL_UNLIKELY(Stats != nullptr))
        Stats->recordRelease();
      return;
    }
    unlockSlow(Obj, Thread);
  }

  /// Non-asserting unlock. \returns false if \p Thread does not own the
  /// monitor (leaving it untouched).
  bool unlockChecked(Object *Obj, const ThreadContext &Thread) {
    std::atomic<uint32_t> &Word = Obj->lockWord();
    uint32_t Value = Word.load(std::memory_order_relaxed);
    uint32_t Shifted = Thread.shiftedIndex();
    if (lockword::isFat(Value)) {
      FatLock *Fat = Monitors.resolve(Value);
      bool MayRetire = Deflation == DeflationPolicy::WhenQuiescent &&
                       Monitors.mayRetire(Value);
      switch (Fat->unlock(Thread, MayRetire)) {
      case FatLock::ReleaseResult::NotOwner:
        return false;
      case FatLock::ReleaseResult::Released:
        if (Stats)
          Stats->recordRelease();
        return true;
      case FatLock::ReleaseResult::RetiredNow:
        // Deflate: we were the only user; the table re-publishes the
        // thin word and wakes whoever saw the stale fat one.
        Monitors.finishDeflation(Obj, Value);
        if (obs::tracingEnabled())
          recordEvent(Obj, Thread, obs::EventKind::Deflate);
        if (Stats) {
          Stats->recordRelease();
          Stats->recordDeflation();
        }
        return true;
      }
      return false; // Unreachable; switch is exhaustive.
    }
    if (!lockword::isThinOwnedBy(Value, Shifted))
      return false;
    Policy::beforeReleaseFence();
    if (lockword::countOf(Value) == 0)
      storeRelease(Word, Value, Value & lockword::HeaderBitsMask);
    else
      storeRelease(Word, Value, Value - lockword::CountUnit);
    if (Stats)
      Stats->recordRelease();
    return true;
  }

  /// Attempts to acquire without blocking (recursion always succeeds —
  /// the count-saturated 257th hold inflates, like lock()'s; a
  /// *contended* thin lock fails without inflating).
  bool tryLock(Object *Obj, const ThreadContext &Thread) {
    std::atomic<uint32_t> &Word = Obj->lockWord();
    uint32_t Shifted = Thread.shiftedIndex();
    SpinWait Spinner;
    for (;;) {
      uint32_t Value = Word.load(std::memory_order_relaxed);
      if (lockword::isFat(Value)) {
        FatLock *Fat = Monitors.resolve(Value);
        switch (Fat->lock(Thread, /*TimeoutNanos=*/0)) {
        case FatLock::TimedResult::Acquired:
          if (Stats) {
            Stats->recordFatPath();
            Stats->recordAcquire(Fat->holdCount());
          }
          return true;
        case FatLock::TimedResult::TimedOut:
          return false;
        case FatLock::TimedResult::Retired:
          // Deflated under us; the word is changing.  Back off on the
          // escalation ladder (pause -> yield -> park) until the
          // deflater publishes the restored header: a bare yield loop
          // burns CPU against a descheduled deflater and never parks.
          backoffOnWord(Obj, Thread, Spinner, Value);
          continue;
        }
      }
      if (lockword::isUnlocked(Value)) {
        uint32_t Old = Value & lockword::HeaderBitsMask;
        if (Word.compare_exchange_strong(Old, Old | Shifted,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
          Policy::afterAcquireFence();
          if (Stats)
            Stats->recordFastPathAcquire();
          return true;
        }
        return false;
      }
      if (lockword::canNestInline(Value, Shifted)) {
        Word.store(Value + lockword::CountUnit, std::memory_order_relaxed);
        if (Stats)
          Stats->recordAcquire(lockword::countOf(Value) + 2);
        return true;
      }
      if (lockword::isThinOwnedBy(Value, Shifted)) {
        // Ours with the count field saturated at 255 (256 holds): the
        // 257th recursive acquisition must succeed by inflating, exactly
        // as lock() does — recursion can never fail a tryLock.  (The
        // paper's count-overflow inflation cause, §2.3.)
        uint32_t Count = lockword::countOf(Value);
        inflateOwned(Obj, Thread, Value, Count + 2,
                     obs::InflateCause::Overflow);
        if (Stats) {
          Stats->recordOverflowInflation();
          Stats->recordAcquire(Count + 2);
        }
        return true;
      }
      return false;
    }
  }

  /// Bounded acquisition: like lock(), but gives up after
  /// \p TimeoutNanos.  At the deadline the owner graph is walked; a
  /// double-confirmed cycle yields TimedLockStatus::Deadlock (and fills
  /// \p Report when non-null) instead of a bare timeout, letting callers
  /// break cycles deliberately rather than guessing.  A non-positive
  /// timeout makes one attempt and never blocks (core/LockProtocol.h),
  /// still classifying a failure through the deadlock check.
  TimedLockStatus tryLockFor(Object *Obj, const ThreadContext &Thread,
                             int64_t TimeoutNanos,
                             DeadlockReport *Report = nullptr) {
    assert(Thread.isValid() && "locking with an unattached thread");
    // Uncontended / recursive cases never need the deadline machinery.
    if (tryLock(Obj, Thread))
      return TimedLockStatus::Acquired;
    return acquireContended(Obj, Thread,
                            std::chrono::steady_clock::now() +
                                std::chrono::nanoseconds(TimeoutNanos),
                            Report);
  }

  /// \returns true if \p Thread owns \p Obj's monitor.
  bool holdsLock(Object *Obj, const ThreadContext &Thread) const {
    uint32_t Value = Obj->lockWord().load(std::memory_order_relaxed);
    if (lockword::isFat(Value))
      return Monitors.resolve(Value)->heldBy(Thread);
    return lockword::isThinOwnedBy(Value, Thread.shiftedIndex());
  }

  /// \returns \p Thread's hold count on \p Obj (0 if not the owner).
  uint32_t lockDepth(Object *Obj, const ThreadContext &Thread) const {
    uint32_t Value = Obj->lockWord().load(std::memory_order_relaxed);
    if (lockword::isFat(Value)) {
      FatLock *Fat = Monitors.resolve(Value);
      return Fat->heldBy(Thread) ? Fat->holdCount() : 0;
    }
    if (!lockword::isThinOwnedBy(Value, Thread.shiftedIndex()))
      return 0;
    return lockword::countOf(Value) + 1;
  }

  /// Java Object.wait(): always inflates a thin lock first, because only
  /// fat locks have wait queues (paper §2.3: thin locks are for objects
  /// that "do not have wait, notify, or notifyAll operations performed
  /// upon them").
  WaitStatus wait(Object *Obj, const ThreadContext &Thread,
                  int64_t TimeoutNanos = -1) {
    std::atomic<uint32_t> &Word = Obj->lockWord();
    uint32_t Value = Word.load(std::memory_order_relaxed);
    FatLock *Fat = nullptr;
    if (lockword::isFat(Value)) {
      Fat = Monitors.resolve(Value);
    } else {
      if (!lockword::isThinOwnedBy(Value, Thread.shiftedIndex()))
        return WaitStatus::NotOwner;
      Fat = inflateOwned(Obj, Thread, Value, lockword::countOf(Value) + 1,
                         obs::InflateCause::Wait);
      if (Stats)
        Stats->recordWaitInflation();
    }
    const bool Tracing = obs::tracingEnabled();
    const uint64_t TraceT0 = Tracing ? obs::monotonicNanos() : 0;
    WaitStatus Status = Fat->wait(Thread, TimeoutNanos);
    if (TL_UNLIKELY(Tracing) && Status != WaitStatus::NotOwner) {
      uint64_t Now = obs::monotonicNanos();
      recordEvent(Obj, Thread, obs::EventKind::Wait,
                  Now >= TraceT0 ? Now - TraceT0 : 0,
                  Status == WaitStatus::Notified ? 1 : 0);
    }
    return Status;
  }

  /// Java Object.notify().  On a thin lock held by the caller this is a
  /// no-op: a thin lock cannot have waiters (wait() inflates).
  NotifyStatus notify(Object *Obj, const ThreadContext &Thread) {
    return notifyImpl(Obj, Thread, /*All=*/false);
  }

  /// Java Object.notifyAll().
  NotifyStatus notifyAll(Object *Obj, const ThreadContext &Thread) {
    return notifyImpl(Obj, Thread, /*All=*/true);
  }

  /// \returns true while \p Obj's lock word is fat.  Under the paper's
  /// DeflationPolicy::Never that holds for the rest of the object's life
  /// once inflated; WhenQuiescent and the speculative scan may return the
  /// word to thin.
  bool isInflated(const Object *Obj) const {
    return lockword::isFat(Obj->lockWord().load(std::memory_order_relaxed));
  }

  /// \returns the fat lock behind \p Obj, or nullptr while still thin.
  FatLock *monitorOf(const Object *Obj) const {
    uint32_t Value = Obj->lockWord().load(std::memory_order_acquire);
    if (!lockword::isFat(Value))
      return nullptr;
    return Monitors.resolve(Value);
  }

  /// Pre-inflation hint: forces \p Obj onto its fat-lock representation
  /// now, transferring the caller's current holds.  The caller must own
  /// the monitor (asserted).  Idempotent once fat.  Use for objects known
  /// to be contended soon — the inflation then happens off the contention
  /// path — and for driving the inflation machinery directly
  /// (bench_inflation_storm).  Not one of the paper's three inflation
  /// causes, so it is deliberately not recorded in LockStats.
  FatLock *inflate(Object *Obj, const ThreadContext &Thread) {
    uint32_t Value = Obj->lockWord().load(std::memory_order_relaxed);
    if (lockword::isFat(Value))
      return Monitors.resolve(Value);
    assert(lockword::isThinOwnedBy(Value, Thread.shiftedIndex()) &&
           "inflate hint on a monitor the thread does not own");
    return inflateOwned(Obj, Thread, Value, lockword::countOf(Value) + 1,
                        obs::InflateCause::Hint);
  }

  /// Out-of-line entry points for the paper's "FnCall" variant (§3.5):
  /// same algorithm, but the fast path pays a call.
  TL_NOINLINE void lockOutOfLine(Object *Obj, const ThreadContext &Thread) {
    lock(Obj, Thread);
  }
  TL_NOINLINE void unlockOutOfLine(Object *Obj,
                                   const ThreadContext &Thread) {
    unlock(Obj, Thread);
  }

  LockStats *stats() const { return Stats; }
  MonitorTable &monitorTable() { return Monitors; }
  void setContentionOptions(const ContentionOptions &NewOptions) {
    Options = NewOptions;
  }

private:
  /// Appends one lock event to \p Thread's ring.  Callers gate on
  /// obs::tracingEnabled() so the disabled path costs one load+branch;
  /// slow paths only — the fast path has no event sites at all.
  static void recordEvent(const Object *Obj, const ThreadContext &Thread,
                          obs::EventKind Kind, uint64_t Arg = 0,
                          uint16_t Extra = 0) {
    obs::EventRing *Ring = Thread.eventRing();
    if (!Ring)
      return;
    Ring->record(obs::monotonicNanos(),
                 reinterpret_cast<uint64_t>(Obj),
                 obs::LockEvent::packMeta(Kind, Thread.index(),
                                          Obj->classIndex(), Extra),
                 Arg);
  }

  /// Records the end of a contended slow-path episode that began at
  /// \p StartNanos: the contended acquisition itself and, when the
  /// thread's Parker actually blocked during the episode, the directed
  /// wake that resumed it (with its unpark-to-resume latency).
  static void recordContendedAcquire(const Object *Obj,
                                     const ThreadContext &Thread,
                                     uint64_t StartNanos,
                                     uint64_t BlockedParksBefore,
                                     uint32_t QueueDepth) {
    uint64_t Now = obs::monotonicNanos();
    uint16_t Depth =
        QueueDepth > UINT16_MAX ? UINT16_MAX : static_cast<uint16_t>(
                                                   QueueDepth);
    recordEvent(Obj, Thread, obs::EventKind::ContendedAcquire,
                Now >= StartNanos ? Now - StartNanos : 0, Depth);
    const Parker *Pk = Thread.parker();
    if (Pk && Pk->blockedParkCount() > BlockedParksBefore &&
        Pk->lastBlockedWakeNanos() > 0)
      recordEvent(Obj, Thread, obs::EventKind::Wake,
                  Pk->lastBlockedWakeNanos());
  }

  /// Publishes "this thread is blocked acquiring Obj" for the lifetime of
  /// a contention episode — the waits-for edge the deadlock detector
  /// reads.  Slow paths only; the fast path never touches the registry.
  class BlockedOnScope {
    const ThreadContext &Thread;

  public:
    BlockedOnScope(const ThreadContext &Thread, const Object *Obj)
        : Thread(Thread) {
      Thread.registry().setBlockedOn(Thread, Obj);
    }
    ~BlockedOnScope() {
      Thread.registry().setBlockedOn(Thread, nullptr);
    }
    BlockedOnScope(const BlockedOnScope &) = delete;
    BlockedOnScope &operator=(const BlockedOnScope &) = delete;
  };

  /// Release a thin word the policy's way: plain store (the paper's
  /// discipline) or compare-and-swap (the UnlkC&S ablation).
  TL_ALWAYS_INLINE void storeRelease(std::atomic<uint32_t> &Word,
                                     uint32_t Expected, uint32_t Desired) {
    if constexpr (Policy::UseCasUnlock) {
      [[maybe_unused]] bool Ok = Word.compare_exchange_strong(
          Expected, Desired, std::memory_order_release,
          std::memory_order_relaxed);
      assert(Ok && "owner-only discipline violated: unlock CAS failed");
    } else {
      Word.store(Desired, std::memory_order_release);
    }
  }

  /// One escalation-ladder step while waiting for \p Obj's lock word to
  /// move off \p ObservedWord.  The pause/yield rungs run in place; the
  /// park rung sleeps in the ParkingLot keyed by the object, so whoever
  /// changes the word (an inflating acquirer publishing the fat word, a
  /// deflater restoring the thin header) can publish-and-wake instead of
  /// the waiter blindly sleeping out its quantum.  The "still worth
  /// sleeping" check runs under the bucket lock: if the word already
  /// changed we never sleep.  \p Clamp bounds the park for callers with
  /// their own deadline.
  void backoffOnWord(Object *Obj, const ThreadContext &Thread,
                     SpinWait &Spinner, uint32_t ObservedWord,
                     std::chrono::steady_clock::time_point Clamp =
                         std::chrono::steady_clock::time_point::max()) {
    uint64_t ParkNanos = Spinner.nextRound();
    if (ParkNanos == 0)
      return;
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::nanoseconds(ParkNanos);
    if (Deadline > Clamp)
      Deadline = Clamp;
    std::atomic<uint32_t> &Word = Obj->lockWord();
    const bool Tracing = obs::tracingEnabled();
    const uint64_t TraceT0 = Tracing ? obs::monotonicNanos() : 0;
    ParkingLot::ParkResult Result = ParkingLot::global().parkUntil(
        Obj, *Thread.parker(),
        [&] {
          return Word.load(std::memory_order_relaxed) == ObservedWord;
        },
        Deadline);
    if (TL_UNLIKELY(Tracing)) {
      uint64_t Now = obs::monotonicNanos();
      recordEvent(Obj, Thread, obs::EventKind::Park,
                  Now >= TraceT0 ? Now - TraceT0 : 0,
                  static_cast<uint16_t>(Result));
      const Parker *Pk = Thread.parker();
      if (Result == ParkingLot::ParkResult::Unparked &&
          Pk->lastBlockedWakeNanos() > 0)
        recordEvent(Obj, Thread, obs::EventKind::Wake,
                    Pk->lastBlockedWakeNanos());
    }
  }

  /// Fat-lock contention in lock(): the wait slice after which the
  /// watchdog walks the owner graph, the waiter keeping its place in the
  /// monitor's entry queue.
  static constexpr int64_t WatchdogSliceNanos = 1'000'000'000;

  /// The cycle check of a blocked acquire: walks the owner graph from
  /// \p Thread, blocked on \p Obj, and records a double-confirmed cycle
  /// (trace event, LockStats).  A \p Watchdog tick from lock() then
  /// terminates with the report under AbortOnDeadlock — a deadlocked
  /// thread never recovers on its own — or keeps waiting.  An expired
  /// tryLockFor() gets the verdict: Deadlock, with the cycle moved into
  /// \p Report when non-null, or a recorded TimedOut.
  TimedLockStatus checkDeadlock(Object *Obj, const ThreadContext &Thread,
                                bool Watchdog, DeadlockReport *Report) {
    DeadlockReport Detected =
        detectDeadlock(Thread.index(), Obj, Thread.registry(), Monitors);
    if (!Detected.hasCycle()) {
      if (Stats && !Watchdog)
        Stats->recordTimedOut();
      return TimedLockStatus::TimedOut;
    }
    if (obs::tracingEnabled())
      recordEvent(Obj, Thread, obs::EventKind::Deadlock, 0,
                  static_cast<uint16_t>(Detected.Cycle.size()));
    if (Stats)
      Stats->recordDeadlock();
    if (Watchdog && Options.AbortOnDeadlock)
      fatalError("thread %u cannot make progress\n%s", Thread.index(),
                 Detected.format().c_str());
    if (Report)
      *Report = std::move(Detected);
    return TimedLockStatus::Deadlock;
  }

  TL_NOINLINE void lockSlow(Object *Obj, const ThreadContext &Thread) {
    acquireContended(Obj, Thread, std::nullopt, nullptr);
  }

  /// The contended-acquire loop (§2.3.4: spin until the owner lets go,
  /// take the word, inflate), shared by lock() and tryLockFor().
  ///  - Without \p Deadline (lock()): fat waits tick the watchdog every
  ///    WatchdogSliceNanos while queued, thin waits tick every
  ///    WatchdogParkPeriod parks, and winning the word always inflates —
  ///    we only got here because another thread held it.
  ///  - With \p Deadline (tryLockFor()): every wait is bounded by the time
  ///    left, and expiry is classified by checkDeadlock() without the
  ///    aborting watchdog.  Winning the word inflates only after meeting
  ///    a contender here (the failed tryLock may have lost a mere race).
  /// Always inlined, so each entry point gets a copy with the deadline
  /// tests folded away and lock()'s fat branch reads no clock.
  TL_ALWAYS_INLINE TimedLockStatus
  acquireContended(Object *Obj, const ThreadContext &Thread,
                   std::optional<std::chrono::steady_clock::time_point>
                       Deadline,
                   DeadlockReport *Report) {
    std::atomic<uint32_t> &Word = Obj->lockWord();
    uint32_t Shifted = Thread.shiftedIndex();
    SpinWait Spinner;
    BlockedOnScope Blocked(Thread, Obj);
    const auto ParkClamp =
        Deadline.value_or(std::chrono::steady_clock::time_point::max());
    bool InflateOnWin = !Deadline;
    uint64_t ParksAtLastCheck = 0;
    const bool Tracing = obs::tracingEnabled();
    const uint64_t TraceT0 = Tracing ? obs::monotonicNanos() : 0;
    const uint64_t TraceParks =
        Tracing && Thread.parker() ? Thread.parker()->blockedParkCount() : 0;
    for (;;) {
      uint32_t Value = Word.load(std::memory_order_acquire);

      if (lockword::isFat(Value)) {
        FatLock *Fat = Monitors.resolve(Value);
        FatLock::TimedResult Result;
        if (Deadline) {
          int64_t Left = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             *Deadline - std::chrono::steady_clock::now())
                             .count();
          if (Left <= 0)
            return checkDeadlock(Obj, Thread, /*Watchdog=*/false, Report);
          Result = Fat->lock(Thread, Left);
        } else {
          Result = Fat->lockTicking(Thread, WatchdogSliceNanos, [&] {
            checkDeadlock(Obj, Thread, /*Watchdog=*/true, nullptr);
          });
        }
        switch (Result) {
        case FatLock::TimedResult::Acquired:
          Policy::afterAcquireFence();
          if (TL_UNLIKELY(Tracing))
            recordContendedAcquire(Obj, Thread, TraceT0, TraceParks,
                                   Fat->entryQueueLength());
          if (Stats) {
            Stats->recordFatPath();
            Stats->recordAcquire(Fat->holdCount());
            Stats->recordSpinIterations(Spinner.totalSpins());
          }
          return TimedLockStatus::Acquired;
        case FatLock::TimedResult::Retired:
          // Monitor retired by deflation; back off briefly (the
          // deflater has yet to store the fresh thin word), re-read.
          backoffOnWord(Obj, Thread, Spinner, Value, ParkClamp);
          continue;
        case FatLock::TimedResult::TimedOut: // Only a bounded wait expires.
          return checkDeadlock(Obj, Thread, /*Watchdog=*/false, Report);
        }
      }

      if (lockword::isThinOwnedBy(Value, Shifted)) {
        uint32_t Count = lockword::countOf(Value);
        if (Count < lockword::MaxCount) {
          // §2.3.3: nested lock — owner-only plain store of word + 256.
          Word.store(Value + lockword::CountUnit, std::memory_order_relaxed);
          if (Stats)
            Stats->recordAcquire(Count + 2);
          return TimedLockStatus::Acquired;
        }
        // 257th hold: inflate, transferring the 256 existing holds plus
        // this acquisition.
        inflateOwned(Obj, Thread, Value, Count + 2,
                     obs::InflateCause::Overflow);
        if (Stats) {
          Stats->recordOverflowInflation();
          Stats->recordAcquire(Count + 2);
        }
        return TimedLockStatus::Acquired;
      }

      if (lockword::isUnlocked(Value)) {
        uint32_t Old = Value & lockword::HeaderBitsMask;
        if (Word.compare_exchange_weak(Old, Old | Shifted,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
          Policy::afterAcquireFence();
          // §2.3.4: by the locality-of-contention principle, inflate now
          // so future contention uses the fat lock's queues.
          if (InflateOnWin) {
            inflateOwned(Obj, Thread, Old | Shifted, 1,
                         obs::InflateCause::Contention);
            if (TL_UNLIKELY(Tracing))
              recordContendedAcquire(Obj, Thread, TraceT0, TraceParks, 0);
            if (Stats)
              Stats->recordContentionInflation();
          }
          if (Stats) {
            Stats->recordAcquire(1);
            Stats->recordSpinIterations(Spinner.totalSpins());
          }
          return TimedLockStatus::Acquired;
        }
        continue; // Lost a race; reevaluate the fresh value.
      }

      // Thin and owned by another thread: spin with backoff (§2.3.4).
      // The ladder's park rung waits in the ParkingLot, so the moment
      // the contended-for owner inflates and publishes the fat word we
      // are woken to queue on the monitor instead of finishing a blind
      // sleep.
      InflateOnWin = true;
      if (Deadline && std::chrono::steady_clock::now() >= *Deadline)
        return checkDeadlock(Obj, Thread, /*Watchdog=*/false, Report);
      backoffOnWord(Obj, Thread, Spinner, Value, ParkClamp);
      if (TL_UNLIKELY(!Deadline && Spinner.isParking() &&
                      Spinner.totalParks() - ParksAtLastCheck >=
                          Options.WatchdogParkPeriod)) {
        ParksAtLastCheck = Spinner.totalParks();
        checkDeadlock(Obj, Thread, /*Watchdog=*/true, nullptr);
      }
    }
  }

  TL_NOINLINE void unlockSlow(Object *Obj, const ThreadContext &Thread) {
    [[maybe_unused]] bool Ok = unlockChecked(Obj, Thread);
    assert(Ok && "unlock of a monitor the thread does not own");
  }

  /// Inflates a thin lock the calling thread owns: allocates a fat lock,
  /// transfers \p Holds holds, and publishes the fat lock word.  Only the
  /// owner may call this (it writes the lock word with a plain store).
  ///
  /// When the MonitorTable is exhausted, degrades to the table's shared
  /// *emergency monitor*: mutual exclusion coarsens (every object in
  /// emergency mode shares one monitor; same-thread holds merge) but
  /// remains correct, and the event is counted in both the table's
  /// exhaustion counter and LockStats.  See DESIGN.md "Failure modes".
  FatLock *inflateOwned(Object *Obj, const ThreadContext &Thread,
                        uint32_t CurrentWord, uint32_t Holds,
                        obs::InflateCause Cause) {
    assert(lockword::isThinOwnedBy(CurrentWord, Thread.shiftedIndex()) &&
           "inflating a lock the thread does not own");
    uint32_t Index = Monitors.allocate();
    if (TL_UNLIKELY(Index == 0)) {
      Index = Monitors.emergencyIndex();
      if (Stats)
        Stats->recordEmergencyInflation();
      Cause = obs::InflateCause::Emergency;
    }
    // A fresh monitor is free with an empty queue, so this takes it at
    // once; the shared emergency one may queue behind another object's
    // holder, or merge with this thread's own holds.  Neither can be
    // retired: the fresh one is unpublished, and the emergency one never
    // retires (MonitorTable::mayRetire).
    FatLock *Fat = Monitors.get(Index);
    [[maybe_unused]] FatLock::TimedResult Result =
        Fat->lock(Thread, std::nullopt, Holds);
    assert(Result == FatLock::TimedResult::Acquired &&
           "inflating onto a retired monitor");
    if (obs::tracingEnabled())
      recordEvent(Obj, Thread, obs::EventKind::Inflate,
                  static_cast<uint64_t>(Cause));
    // Route the monitor's wake-handoff latency samples into our stats.
    Fat->setStatsSink(Stats);
    if (TL_FAILPOINT(ThinLockInflateRace)) {
      // Widen the inflation window: the fat lock is held but the word is
      // still thin, so contenders keep spinning on the thin word and
      // must re-read after we publish.  Exercises the §2.3.4 hand-off.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    uint32_t HeaderBits = lockword::headerBitsOf(CurrentWord);
    Obj->lockWord().store(lockword::makeFat(Index, HeaderBits),
                          std::memory_order_release);
    // Publish-and-wake (§2.3.4 hand-off): contenders lot-parked on the
    // thin word learn of the fat lock now, not at their next deadline.
    ParkingLot::global().unparkAll(Obj);
    return Fat;
  }

  NotifyStatus notifyImpl(Object *Obj, const ThreadContext &Thread,
                          bool All) {
    uint32_t Value = Obj->lockWord().load(std::memory_order_relaxed);
    if (lockword::isFat(Value)) {
      uint32_t Morphed = 0;
      NotifyStatus Status =
          Monitors.resolve(Value)->notify(Thread, All, &Morphed);
      if (obs::tracingEnabled() && Status == NotifyStatus::Ok)
        recordEvent(Obj, Thread,
                    All ? obs::EventKind::NotifyAll : obs::EventKind::Notify,
                    0, static_cast<uint16_t>(Morphed));
      return Status;
    }
    // Thin lock: if we own it there can be no waiters, so notify is a
    // legal no-op; otherwise it is an IllegalMonitorState.
    return lockword::isThinOwnedBy(Value, Thread.shiftedIndex())
               ? NotifyStatus::Ok
               : NotifyStatus::NotOwner;
  }

  MonitorTable &Monitors;
  LockStats *Stats;
  DeflationPolicy Deflation;
  ContentionOptions Options;
};

/// The shipping configuration (paper §3.5.1): per-operation dynamic
/// machine-type check.
using ThinLockManager = ThinLockImpl<DynamicPolicy>;
/// §3.5 ablation configurations.
using ThinLockUP = ThinLockImpl<UniprocessorPolicy>;
using ThinLockMP = ThinLockImpl<MultiprocessorPolicy>;
using ThinLockCasUnlock = ThinLockImpl<CasUnlockPolicy>;

static_assert(SyncProtocol<ThinLockManager>,
              "ThinLockManager must satisfy the protocol concept");

extern template class ThinLockImpl<DynamicPolicy>;
extern template class ThinLockImpl<UniprocessorPolicy>;
extern template class ThinLockImpl<MultiprocessorPolicy>;
extern template class ThinLockImpl<CasUnlockPolicy>;

} // namespace thinlocks

#endif // THINLOCKS_CORE_THINLOCK_H
