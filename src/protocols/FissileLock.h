//===- protocols/FissileLock.h - TS + MCS fissile lock ---------*- C++ -*-===//
///
/// \file
/// Fissile Locks (Dice & Kogan, arXiv:2003.05025): a test-and-set fast
/// path "fissioned" from an MCS-style arrival queue.  Uncontended
/// acquire/release is one CAS / one store on an outer TS word — as cheap
/// as a plain spinlock — while under contention arriving threads form a
/// strict-FIFO inner queue and *only the queue head* competes on the TS
/// word.  That bounds the futile-CAS traffic of a bare TS lock (every
/// waiter hammering the line) to a single thread, while keeping the
/// barging window of the TS fast path (a newly arriving thread may still
/// win the word with one CAS before joining the queue — the property that
/// makes TS locks fast under light contention).
///
/// This implementation sits on the repo's Parker/ParkingLot substrate
/// rather than pure spinning (the evaluation host is a uniprocessor, so
/// an unbounded TS spin would livelock against the owner):
///
///  - the inner queue is a classic MCS list of stack-allocated nodes;
///    a non-head waiter blocks on its *own* Parker and is granted head
///    position by its predecessor with a directed unpark — never lost;
///  - the head waits for the TS word via bounded ParkingLot parks
///    (validate-under-bucket-lock, deadline = one SpinWait park rung),
///    and the releaser issues an unparkOne after clearing the word, so
///    the TS->queue crossover has no unbounded sleep: a wake that loses
///    the store-buffer race costs at most one park quantum, never the
///    wakeup itself;
///  - wait/notify morph waiters instead of waking them: notify moves the
///    wait node onto a morphed list and the *releasing* unlock grants one
///    morphed waiter per final release (the FatLock wait-morphing
///    discipline, so a notifyAll never stampedes threads into a monitor
///    the notifier still holds).
///
/// Like the paper's baselines the per-object state (TS word, queue tail,
/// wait set) lives in a sharded side table keyed by object address
/// (baselines/ObjectTable.h, shared with EagerMonitor) — the
/// object header stays untouched, so Fissile composes with the thin-lock
/// header layout rather than competing for header bits.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_PROTOCOLS_FISSILELOCK_H
#define THINLOCKS_PROTOCOLS_FISSILELOCK_H

#include "baselines/ObjectTable.h"
#include "core/LockProtocol.h"
#include "heap/Object.h"
#include "park/Parker.h"
#include "support/Compiler.h"
#include "support/Mutex.h"
#include "support/StatsCounter.h"
#include "threads/ThreadContext.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace thinlocks {

/// Monotonic event counters for the fissile lock (statsJson capability).
struct FissileLockStats {
  uint64_t FastAcquires = 0;   ///< TS CAS won without queueing.
  uint64_t QueuedAcquires = 0; ///< Acquires that joined the MCS queue.
  uint64_t HeadParks = 0;      ///< Bounded lot-parks by the queue head.
  uint64_t Handoffs = 0;       ///< MCS head grants to a successor.
  uint64_t Morphs = 0;         ///< Waiters moved wait-set -> morphed list.
};

/// TS fast path + MCS queue, on the Parker/ParkingLot substrate.
class FissileLock {
public:
  FissileLock() = default;

  FissileLock(const FissileLock &) = delete;
  FissileLock &operator=(const FissileLock &) = delete;

  static const char *protocolName() { return "Fissile"; }

  void lock(Object *Obj, const ThreadContext &Thread);
  void unlock(Object *Obj, const ThreadContext &Thread);
  bool unlockChecked(Object *Obj, const ThreadContext &Thread);
  bool tryLock(Object *Obj, const ThreadContext &Thread);
  TimedLockStatus tryLockFor(Object *Obj, const ThreadContext &Thread,
                             int64_t TimeoutNanos);
  bool holdsLock(Object *Obj, const ThreadContext &Thread) const;
  uint32_t lockDepth(Object *Obj, const ThreadContext &Thread) const;
  WaitStatus wait(Object *Obj, const ThreadContext &Thread,
                  int64_t TimeoutNanos = -1);
  NotifyStatus notify(Object *Obj, const ThreadContext &Thread);
  NotifyStatus notifyAll(Object *Obj, const ThreadContext &Thread);

  FissileLockStats stats() const;

  /// \returns the counters rendered as a JSON object literal (the
  /// SyncBackend statsJson capability).
  std::string statsJson() const;

  /// \returns how many side-table cells exist (== objects ever locked).
  uint64_t cellCount() const { return Cells.size(); }

  /// \returns the current wait-set size of \p Obj's monitor, morphed
  /// waiters included (test/diagnostic aid).
  size_t waitSetSize(const Object *Obj) const;

private:
  /// One MCS arrival-queue node, stack-allocated in acquireSlow.  A
  /// waiter blocks on its own Parker until its predecessor grants it the
  /// head position (Granted); the head then competes on the TS word.
  struct QueueNode {
    Parker *Pk = nullptr;
    std::atomic<QueueNode *> Next{nullptr};
    std::atomic<uint32_t> Granted{0};
  };

  /// One waiting thread in the wait set, stack-allocated in wait().
  struct WaitNode {
    /// Lifecycle, guarded by the cell's WaitMu.
    enum class State : uint8_t {
      InWaitSet, ///< Linked in the wait list; notify may morph it.
      Morphed,   ///< Notified; queued for a grant at a future release.
      Granted,   ///< Released by an unlock; owner of the next wakeup.
      Removed,   ///< Timed out and self-unlinked.
    };
    Parker *Pk = nullptr;
    WaitNode *Next = nullptr;
    State Where = State::InWaitSet;
  };

  /// Per-object lock state.  Depth and MorphedCount are written only by
  /// the thread currently holding the TS word; the release/acquire chain
  /// on Word orders those accesses across owner changes.
  struct FissileCell {
    /// Outer TS word: 0 = free, otherwise the owner's thread index.
    std::atomic<uint32_t> Word{0};
    /// Recursion depth; owner-only (see above).
    uint32_t Depth = 0;
    /// Morphed-list length; owner-only mirror so the release path can
    /// skip WaitMu when no notify is pending.
    uint32_t MorphedCount = 0;
    /// MCS arrival-queue tail.
    std::atomic<QueueNode *> Tail{nullptr};
    /// Threads lot-parked on this cell (queue head + timed triers); lets
    /// the uncontended release skip the ParkingLot entirely.
    std::atomic<uint32_t> Sleepers{0};
    mutable Mutex WaitMu;
    WaitNode *WaitHead TL_GUARDED_BY(WaitMu) = nullptr;
    WaitNode *WaitTail TL_GUARDED_BY(WaitMu) = nullptr;
    WaitNode *MorphedHead TL_GUARDED_BY(WaitMu) = nullptr;
    WaitNode *MorphedTail TL_GUARDED_BY(WaitMu) = nullptr;
  };

  /// The guarded fast-path cores (tools/lint/fastpath_guard.py budgets
  /// `fastAcquireOutOfLine:Fissile` / `fastReleaseOutOfLine:Fissile`):
  /// straight-line CAS / store on the TS word, no calls.
  TL_NOINLINE static bool fastAcquireOutOfLine(FissileCell &Cell,
                                               uint32_t Tid);
  TL_NOINLINE static void fastReleaseOutOfLine(FissileCell &Cell);

  /// Acquires the cell for \p Thread (no recursion handling); sets
  /// Depth = 1.  The MCS slow path.
  void acquireCell(FissileCell &Cell, const ThreadContext &Thread);
  void acquireSlow(FissileCell &Cell, const ThreadContext &Thread);
  /// Final release: grants one morphed waiter (if any), clears the TS
  /// word, and wakes the lot.  Caller must own the cell at depth 0.
  void releaseCell(FissileCell &Cell);

  void morphOneLocked(FissileCell &Cell) TL_REQUIRES(Cell.WaitMu);

  ObjectTable<FissileCell> Cells;
  StatsCounter FastAcquires;
  StatsCounter QueuedAcquires;
  StatsCounter HeadParks;
  StatsCounter Handoffs;
  StatsCounter Morphs;
};

static_assert(SyncProtocol<FissileLock>,
              "FissileLock must satisfy the protocol concept");

} // namespace thinlocks

#endif // THINLOCKS_PROTOCOLS_FISSILELOCK_H
