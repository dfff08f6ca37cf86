//===- perfbench/LayerLedger.h - Per-layer ledger for the traced run ------===//
///
/// \file
/// What the traced run of the benchmark uses to time the calls it makes
/// into the lock layer, from the benchmark's own files:
///
///  - TracedProtocol<P>: a SyncProtocol decorator.  Before every lock /
///    unlock / tryLock it reads the object's lock word and sorts the call
///    into a class: thin-unlocked (first), thin-mine (nested), thin-other
///    (contended), or fat.  Every call is counted; fast classes are timed
///    one call in SampleEvery, slow classes (contended, fat) always.
///    Wrapped in SyncBackendAdapter it is also the SyncBackend decorator
///    the txn engine takes.
///
///  - ThreadLedger: one attached thread's counters, sampled latencies and
///    spans.  Only its owner thread writes it, so recording shares no
///    cache line; the benchmark merges them after the workers are idle.
///
///  - WorkerPool: benchmark-owned, registry-attached threads that run one
///    job per round and report their Parker's blocked-park count.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_PERFBENCH_LAYERLEDGER_H
#define THINLOCKS_PERFBENCH_LAYERLEDGER_H

#include "core/LockProtocol.h"
#include "core/LockWord.h"
#include "park/Parker.h"
#include "support/Histogram.h"
#include "support/Timer.h"
#include "threads/ThreadRegistry.h"

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

using namespace thinlocks;

/// Lock-layer call classes, by the lock word seen just before the call.
enum Call : unsigned {
  LockFirst,     ///< lock() on a thin, unlocked word.
  LockNested,    ///< lock() on a thin word this thread owns.
  LockContended, ///< lock() on a thin word another thread owns.
  LockFat,       ///< lock() on an inflated word.
  UnlockThin,    ///< unlock() of a thin word.
  UnlockFat,     ///< unlock() of an inflated word.
  TryLock,       ///< tryLock(), any word.
  NumCalls
};

inline const char *callName(unsigned C) {
  static const char *const Names[NumCalls] = {
      "lock_first", "lock_nested", "lock_contended", "lock_fat",
      "unlock_thin", "unlock_fat", "trylock"};
  return Names[C];
}

/// Slow classes are timed on every call: they are rare on the workloads
/// where the fast path dominates and long where they are common, so the
/// clock reads cost little either way.
inline bool alwaysTimed(unsigned C) {
  return C == LockContended || C == LockFat || C == UnlockFat;
}

/// One span: a timed call, or an operation (replay of one profile, one
/// convoy iteration, one txn worker quota) that the calls belong to.
/// Spans of one operation share Op; calls name their operation's span as
/// parent, operations have none.
struct SpanRecord {
  const char *Name = "";
  const char *Parent = "";
  uint64_t Op = 0;
  uint64_t StartNanos = 0;
  uint64_t EndNanos = 0;
};

struct ThreadLedger {
  std::array<uint64_t, NumCalls> Calls{};
  std::array<uint64_t, NumCalls> TimedCalls{};
  std::array<uint64_t, NumCalls> TimedNanos{};
  std::array<LatencyHistogram, NumCalls> Latency;
  uint64_t TryLockFailed = 0;
  /// xorshift32 state for the 1-in-N sample.  Random rather than every
  /// N-th call: a periodic sample aliases with the workload (a nesting
  /// sequence always makes an even number of calls, so a counter would
  /// only ever land on its unlocks).
  uint32_t SampleState = 0x9e3779b9u;
  /// Set by the benchmark around a sampled operation: every call inside
  /// it is timed, so the operation's span has all its children.
  bool ForceSample = false;
  /// The enclosing operation (0 = none; calls then record no span).
  uint64_t Op = 0;
  const char *OpName = "";
  uint64_t NextOp = 0;
  std::vector<SpanRecord> Spans;
};

/// Per-thread ledgers indexed by registry thread index.
class LayerLedger {
public:
  /// \p SampleEvery must be a power of two.  \p SpanCap bounds the spans
  /// each thread keeps in memory; later ones are not recorded.
  LayerLedger(uint16_t RegistryCapacity, unsigned SampleEvery, size_t SpanCap)
      : Mask(SampleEvery - 1), SpanCap(SpanCap) {
    for (unsigned I = 0; I <= RegistryCapacity; ++I) {
      Slots.push_back(std::make_unique<ThreadLedger>());
      Slots.back()->SampleState += I * 0x6d2b79f5u;
    }
  }

  ThreadLedger &of(const ThreadContext &Thread) {
    return *Slots[Thread.index()];
  }
  const std::vector<std::unique_ptr<ThreadLedger>> &threads() const {
    return Slots;
  }

  /// Runs \p Body as call class \p C, counting it and timing it when
  /// sampled.
  template <typename Fn>
  void record(ThreadLedger &L, unsigned C, Fn &&Body) {
    ++L.Calls[C];
    if (!alwaysTimed(C) && !L.ForceSample) {
      uint32_t X = L.SampleState;
      X ^= X << 13;
      X ^= X >> 17;
      X ^= X << 5;
      L.SampleState = X;
      if ((X & Mask) != 0) {
        Body();
        return;
      }
    }
    uint64_t Start = monotonicNanos();
    Body();
    uint64_t End = monotonicNanos();
    ++L.TimedCalls[C];
    L.TimedNanos[C] += End - Start;
    L.Latency[C].record(End - Start);
    if (L.Op != 0)
      addSpan(L, {callName(C), L.OpName, L.Op, Start, End});
  }

  /// Opens operation \p Name on \p L; \returns its start stamp.
  uint64_t beginOp(ThreadLedger &L, const char *Name, uint16_t Tid) {
    L.Op = (static_cast<uint64_t>(Tid) << 40) | ++L.NextOp;
    L.OpName = Name;
    return monotonicNanos();
  }
  void endOp(ThreadLedger &L, uint64_t Start) {
    addSpan(L, {L.OpName, "", L.Op, Start, monotonicNanos()});
    L.Op = 0;
  }

  void addSpan(ThreadLedger &L, const SpanRecord &Span) {
    if (L.Spans.size() < SpanCap)
      L.Spans.push_back(Span);
  }

private:
  const uint64_t Mask;
  const size_t SpanCap;
  std::vector<std::unique_ptr<ThreadLedger>> Slots;
};

/// Classifies a lock() call by the word it is about to act on.
inline unsigned classifyLock(uint32_t Word, uint32_t ShiftedIndex) {
  if (lockword::isFat(Word))
    return LockFat;
  if (lockword::isUnlocked(Word))
    return LockFirst;
  return lockword::isThinOwnedBy(Word, ShiftedIndex) ? LockNested
                                                     : LockContended;
}

/// SyncProtocol decorator recording every lock-family call in a
/// LayerLedger; the other operations forward untouched.
template <SyncProtocol P> class TracedProtocol {
  P &Impl;
  LayerLedger &Ledger;

public:
  TracedProtocol(P &Impl, LayerLedger &Ledger) : Impl(Impl), Ledger(Ledger) {}

  static const char *protocolName() { return P::protocolName(); }

  void lock(Object *Obj, const ThreadContext &Thread) {
    uint32_t Word = Obj->lockWord().load(std::memory_order_relaxed);
    Ledger.record(Ledger.of(Thread), classifyLock(Word, Thread.shiftedIndex()),
                  [&] { Impl.lock(Obj, Thread); });
  }
  void unlock(Object *Obj, const ThreadContext &Thread) {
    uint32_t Word = Obj->lockWord().load(std::memory_order_relaxed);
    Ledger.record(Ledger.of(Thread),
                  lockword::isFat(Word) ? UnlockFat : UnlockThin,
                  [&] { Impl.unlock(Obj, Thread); });
  }
  bool tryLock(Object *Obj, const ThreadContext &Thread) {
    ThreadLedger &L = Ledger.of(Thread);
    bool Acquired = false;
    Ledger.record(L, TryLock, [&] { Acquired = Impl.tryLock(Obj, Thread); });
    if (!Acquired)
      ++L.TryLockFailed;
    return Acquired;
  }

  bool unlockChecked(Object *Obj, const ThreadContext &Thread) {
    return Impl.unlockChecked(Obj, Thread);
  }
  TimedLockStatus tryLockFor(Object *Obj, const ThreadContext &Thread,
                             int64_t TimeoutNanos) {
    return Impl.tryLockFor(Obj, Thread, TimeoutNanos);
  }
  bool holdsLock(Object *Obj, const ThreadContext &Thread) const {
    return Impl.holdsLock(Obj, Thread);
  }
  uint32_t lockDepth(Object *Obj, const ThreadContext &Thread) const {
    return Impl.lockDepth(Obj, Thread);
  }
  WaitStatus wait(Object *Obj, const ThreadContext &Thread,
                  int64_t TimeoutNanos) {
    return Impl.wait(Obj, Thread, TimeoutNanos);
  }
  NotifyStatus notify(Object *Obj, const ThreadContext &Thread) {
    return Impl.notify(Obj, Thread);
  }
  NotifyStatus notifyAll(Object *Obj, const ThreadContext &Thread) {
    return Impl.notifyAll(Obj, Thread);
  }
};

/// Registry-attached threads that run one job per round.  The
/// constructor returns once every thread has attached (or failed to), so
/// a caller timing set-up includes spawn and attach.
class WorkerPool {
public:
  using Job = std::function<void(unsigned Worker, const ThreadContext &)>;

  WorkerPool(ThreadRegistry &Registry, unsigned Count)
      : BlockedParks(Count, 0) {
    Threads.reserve(Count);
    for (unsigned W = 0; W < Count; ++W)
      Threads.emplace_back([this, &Registry, W] { workerMain(Registry, W); });
    std::unique_lock<std::mutex> Guard(Mu);
    DoneCv.wait(Guard, [&] { return Ready == Threads.size(); });
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> Guard(Mu);
      Quit = true;
    }
    WorkCv.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  /// Runs \p Work on every attached worker and waits for all of them.
  void run(const Job &Work) {
    std::unique_lock<std::mutex> Guard(Mu);
    Current = &Work;
    Done = 0;
    ++Generation;
    WorkCv.notify_all();
    DoneCv.wait(Guard, [&] { return Done == Threads.size(); });
    Current = nullptr;
  }

  unsigned attachFailures() const {
    std::lock_guard<std::mutex> Guard(Mu);
    return AttachFailures;
  }

  /// \returns Σ Parker::blockedParkCount() over the workers, as each
  /// read its own Parker after its last job.
  uint64_t blockedParks() const {
    std::lock_guard<std::mutex> Guard(Mu);
    uint64_t Sum = 0;
    for (uint64_t N : BlockedParks)
      Sum += N;
    return Sum;
  }

private:
  void workerMain(ThreadRegistry &Registry, unsigned W) {
    ScopedThreadAttachment Attach(Registry, "perfbench-worker");
    const ThreadContext &Me = Attach.context();
    uint64_t Seen = 0;
    {
      std::lock_guard<std::mutex> Guard(Mu);
      if (!Me.isValid())
        ++AttachFailures;
      ++Ready;
    }
    DoneCv.notify_all();
    for (;;) {
      const Job *Work;
      {
        std::unique_lock<std::mutex> Guard(Mu);
        WorkCv.wait(Guard, [&] { return Quit || Generation != Seen; });
        if (Quit)
          return;
        Seen = Generation;
        Work = Current;
      }
      uint64_t Parks = 0;
      if (Me.isValid()) {
        (*Work)(W, Me);
        Parks = Me.parker()->blockedParkCount();
      }
      {
        std::lock_guard<std::mutex> Guard(Mu);
        BlockedParks[W] = Parks;
        ++Done;
      }
      DoneCv.notify_all();
    }
  }

  mutable std::mutex Mu;
  std::condition_variable WorkCv;
  std::condition_variable DoneCv;
  const Job *Current = nullptr;
  uint64_t Generation = 0;
  size_t Ready = 0;
  size_t Done = 0;
  bool Quit = false;
  unsigned AttachFailures = 0;
  std::vector<uint64_t> BlockedParks;
  std::vector<std::thread> Threads;
};

} // namespace perfbench

#endif // THINLOCKS_PERFBENCH_LAYERLEDGER_H
