//===- workload/Trace.h - Lock-operation trace record & replay -*- C++ -*-===//
///
/// \file
/// The measurement methodology of paper §3.1-3.2 as a reusable
/// component: the authors instrumented their JVM to record every
/// synchronization operation, then characterized the traces (Table 1,
/// Figure 3).  This module provides:
///
///  - TracingBackend: a SyncBackend decorator that appends every monitor
///    operation to a LockTrace while forwarding to the real protocol;
///  - LockTrace: the recorded stream, with save/load in a line-oriented
///    text format and the Table-1/Figure-3 characterization queries;
///  - replayTrace(): re-executes a recorded single-threaded trace
///    against any protocol (the mechanism by which one program's locking
///    behaviour can be measured under many implementations).
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_WORKLOAD_TRACE_H
#define THINLOCKS_WORKLOAD_TRACE_H

#include "core/LockProtocol.h"
#include "core/SyncBackend.h"
#include "heap/Heap.h"
#include "support/Timer.h"
#include "threads/ThreadContext.h"

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace thinlocks {
namespace workload {

/// One recorded monitor operation.
struct TraceEvent {
  enum class Kind : uint8_t { Lock, Unlock, Wait, Notify, NotifyAll };
  Kind Op = Kind::Lock;
  /// Dense object id assigned at first appearance.
  uint32_t ObjectId = 0;
  /// Recording thread's registry index.
  uint16_t ThreadIndex = 0;
};

/// \returns the single-character mnemonic used in the text format.
char traceEventCode(TraceEvent::Kind Kind);

/// A recorded sequence of monitor operations over a set of objects.
class LockTrace {
public:
  void append(TraceEvent Event) { Events.push_back(Event); }

  const std::vector<TraceEvent> &events() const { return Events; }
  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }

  /// \returns the number of distinct objects appearing in the trace
  /// (ids are dense, so this is max id + 1).
  uint32_t objectCount() const;

  /// \returns the number of distinct threads appearing in the trace.
  uint32_t threadCount() const;

  /// Table 1 style: total lock operations.
  uint64_t lockOperationCount() const;

  /// Table 1 style: locks per locked object (0 if nothing was locked).
  double locksPerObject() const;

  /// Figure 3 style: fraction of lock operations at depth 1/2/3/4+,
  /// computed by simulating per-thread hold depths over the trace.
  /// Meaningful for well-nested traces (which TracingBackend produces).
  void depthMix(double Out[4]) const;

  /// Serializes as one event per line: "<code> <objectId> <threadIndex>".
  void save(std::ostream &Out) const;

  /// Parses the save() format.  \returns false on malformed input
  /// (leaving the trace in a valid but unspecified state).
  bool load(std::istream &In);

  bool operator==(const LockTrace &Other) const {
    if (Events.size() != Other.Events.size())
      return false;
    for (size_t I = 0; I < Events.size(); ++I)
      if (Events[I].Op != Other.Events[I].Op ||
          Events[I].ObjectId != Other.Events[I].ObjectId ||
          Events[I].ThreadIndex != Other.Events[I].ThreadIndex)
        return false;
    return true;
  }

private:
  std::vector<TraceEvent> Events;
};

/// SyncBackend decorator recording every operation into a LockTrace
/// while forwarding to an underlying backend.  Object identity is
/// interned to dense ids in first-use order.  Thread-safe (appends are
/// serialized by an internal mutex; use one recorder per measurement).
class TracingBackend final : public SyncBackend {
public:
  TracingBackend(SyncBackend &Underlying, LockTrace &Trace)
      : Underlying(Underlying), Trace(Trace) {}

  const char *name() const override { return Underlying.name(); }
  void lock(Object *Obj, const ThreadContext &Thread) override;
  void unlock(Object *Obj, const ThreadContext &Thread) override;
  bool unlockChecked(Object *Obj, const ThreadContext &Thread) override;
  /// A successful try/timed acquire records as a Lock (the trace format
  /// has no failure events, and only successes affect nesting); a
  /// failed one leaves no trace.
  bool tryLock(Object *Obj, const ThreadContext &Thread) override;
  TimedLockStatus tryLockFor(Object *Obj, const ThreadContext &Thread,
                             int64_t TimeoutNanos) override;
  bool holdsLock(Object *Obj,
                 const ThreadContext &Thread) const override {
    return Underlying.holdsLock(Obj, Thread);
  }
  uint32_t lockDepth(Object *Obj,
                     const ThreadContext &Thread) const override {
    return Underlying.lockDepth(Obj, Thread);
  }
  WaitStatus wait(Object *Obj, const ThreadContext &Thread,
                  int64_t TimeoutNanos) override;
  NotifyStatus notify(Object *Obj, const ThreadContext &Thread) override;
  NotifyStatus notifyAll(Object *Obj,
                         const ThreadContext &Thread) override;
  bool inflateHint(Object *Obj, const ThreadContext &Thread) override {
    return Underlying.inflateHint(Obj, Thread);
  }

  /// \returns the dense id assigned to \p Obj (interning it if new).
  uint32_t internObject(const Object *Obj);

private:
  void record(TraceEvent::Kind Kind, const Object *Obj,
              const ThreadContext &Thread);

  SyncBackend &Underlying;
  LockTrace &Trace;
  std::mutex Mutex;
  std::unordered_map<const Object *, uint32_t> ObjectIds;
};

/// Result of replaying a trace.
struct TraceReplayResult {
  uint64_t EventsReplayed = 0;
  uint64_t ElapsedNanos = 0;
  /// Events skipped because they were illegal at replay time (e.g. an
  /// unlock recorded NotOwner); zero for well-formed traces.
  uint64_t SkippedEvents = 0;
};

/// Replays a single-threaded trace (all events from one recording
/// thread) against \p Protocol: allocates objectCount() fresh objects
/// and re-issues every operation in order.  wait events are replayed as
/// zero-ish timeout waits (no partner exists to notify).
template <SyncProtocol P>
TraceReplayResult replayTrace(const LockTrace &Trace, P &Protocol,
                              Heap &TheHeap, const ThreadContext &Thread) {
  TraceReplayResult Result;
  const ClassInfo &Class =
      TheHeap.classes().registerClass("TraceObj", 0);
  std::vector<Object *> Objects;
  Objects.reserve(Trace.objectCount());
  for (uint32_t I = 0; I < Trace.objectCount(); ++I)
    Objects.push_back(TheHeap.allocate(Class));

  StopWatch Watch;
  for (const TraceEvent &Event : Trace.events()) {
    Object *Obj = Objects[Event.ObjectId];
    switch (Event.Op) {
    case TraceEvent::Kind::Lock:
      Protocol.lock(Obj, Thread);
      break;
    case TraceEvent::Kind::Unlock:
      if (!Protocol.unlockChecked(Obj, Thread))
        ++Result.SkippedEvents;
      break;
    case TraceEvent::Kind::Wait:
      if (Protocol.wait(Obj, Thread, /*TimeoutNanos=*/1000) ==
          WaitStatus::NotOwner)
        ++Result.SkippedEvents;
      break;
    case TraceEvent::Kind::Notify:
      if (Protocol.notify(Obj, Thread) == NotifyStatus::NotOwner)
        ++Result.SkippedEvents;
      break;
    case TraceEvent::Kind::NotifyAll:
      if (Protocol.notifyAll(Obj, Thread) == NotifyStatus::NotOwner)
        ++Result.SkippedEvents;
      break;
    }
    ++Result.EventsReplayed;
  }
  Result.ElapsedNanos = Watch.elapsedNanos();
  return Result;
}

} // namespace workload
} // namespace thinlocks

#endif // THINLOCKS_WORKLOAD_TRACE_H
