//===- obs/EventRing.h - Per-thread lock-event ring buffer -----*- C++ -*-===//
///
/// \file
/// A fixed-size single-writer ring of packed lock events.  Exactly one
/// ring exists per thread index, embedded in the registry's ThreadInfo
/// next to the thread's Parker and recycled the same way: the storage
/// outlives the thread, so a collector can drain events from threads
/// that have already detached, and a fresh thread attaching on a
/// recycled index simply keeps appending to the same ring (every event
/// carries its own thread index, so attribution stays exact).
///
/// Concurrency contract:
///  - record() is owner-thread-only: the attached thread whose index the
///    ring currently serves.  It is wait-free, a seqlock: the head counts
///    half steps, odd while a slot is being written — a bump to odd, four
///    slot stores, a bump to even, all release.  An overrun silently
///    overwrites the oldest slot.
///  - drain() may run on any *single* collector thread at a time (the
///    LockEventCollector serializes itself).  It acquires the finished
///    events' slot words after its private cursor, and after each slot
///    re-checks the head: once the writer has *begun* the event that
///    reuses the slot, the copy may be torn, so it is counted as dropped
///    rather than surfaced.
///
/// Storage is allocated lazily on the first record, so the registry's
/// preallocated ThreadInfo pool does not pay ~128 KiB per slot while
/// tracing has never been on.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_OBS_EVENTRING_H
#define THINLOCKS_OBS_EVENTRING_H

#include "obs/LockEvents.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace thinlocks {
namespace obs {

class EventRing {
public:
  /// Slots per ring (power of two).  At 32 bytes per slot a full ring is
  /// 128 KiB — roomy enough that a millisecond-scale drain cadence keeps
  /// up with contention-bound event rates.
  static constexpr size_t DefaultCapacity = 4096;

  /// \param Capacity must be a power of two (tests shrink it to force
  /// wraparound quickly).
  explicit EventRing(size_t Capacity = DefaultCapacity);
  ~EventRing();

  EventRing(const EventRing &) = delete;
  EventRing &operator=(const EventRing &) = delete;

  /// Appends one packed event.  Owner-thread only; never blocks.
  void record(uint64_t Time, uint64_t Addr, uint64_t Meta, uint64_t Arg);

  /// Convenience: pack and append.
  void record(const LockEvent &E) {
    record(E.TimeNanos, E.ObjectAddr,
           LockEvent::packMeta(E.Kind, E.ThreadIndex, E.ClassIndex, E.Extra),
           E.Arg);
  }

  /// Drains every event recorded since the previous drain into \p Sink
  /// (called as Sink(const LockEvent &)).  Single-collector only.
  /// \returns the number of events delivered.
  template <typename SinkFn> size_t drain(SinkFn &&Sink) {
    Slot *S = Slots.load(std::memory_order_acquire);
    if (!S)
      return 0;
    // Events [0, H) are finished; an odd head's event is read later.
    uint64_t H = Head.load(std::memory_order_acquire) / 2;
    uint64_t From = ReadCursor;
    // Already lapped before we started: everything older than one full
    // ring is gone.
    if (H - From > Cap) {
      DroppedCount += (H - Cap) - From;
      From = H - Cap;
    }
    size_t Delivered = 0;
    for (uint64_t Seq = From; Seq != H; ++Seq) {
      const Slot &In = S[Seq & Mask];
      uint64_t Time = In.Time.load(std::memory_order_acquire);
      uint64_t Addr = In.Addr.load(std::memory_order_acquire);
      uint64_t Meta = In.Meta.load(std::memory_order_acquire);
      uint64_t Arg = In.Arg.load(std::memory_order_acquire);
      // A word from the next lap carries that lap's odd head with it, so
      // the head then shows the lap begun: discard.
      uint64_t Fresh = Head.load(std::memory_order_relaxed);
      if (Fresh > 2 * (Seq + Cap)) {
        ++DroppedCount;
        continue;
      }
      Sink(LockEvent::unpack(Time, Addr, Meta, Arg));
      ++Delivered;
    }
    ReadCursor = H;
    return Delivered;
  }

  /// \returns how many events the collector could not deliver because
  /// the writer lapped them (cumulative; collector-thread only).
  uint64_t droppedEvents() const { return DroppedCount; }

  /// \returns how many events have ever been recorded (racy snapshot).
  uint64_t recordedEvents() const {
    return Head.load(std::memory_order_relaxed) / 2;
  }

  size_t capacity() const { return Cap; }

private:
  /// One packed event; four individually-atomic words so the collector's
  /// racy reads of a lapped slot are data-race-free (and then discarded).
  struct Slot {
    std::atomic<uint64_t> Time{0};
    std::atomic<uint64_t> Addr{0};
    std::atomic<uint64_t> Meta{0};
    std::atomic<uint64_t> Arg{0};
  };

  Slot *allocateSlots();

  const size_t Cap;
  const uint64_t Mask;
  /// Lazily allocated by the first record(); release-published so a
  /// draining collector acquires fully-constructed slots.
  std::atomic<Slot *> Slots{nullptr};
  /// Twice the next sequence number to write, plus one while its slot
  /// words are being written.
  std::atomic<uint64_t> Head{0};
  /// Collector-private resume point (guarded by the collector's own
  /// serialization, not by this class).
  uint64_t ReadCursor = 0;
  uint64_t DroppedCount = 0;
};

} // namespace obs
} // namespace thinlocks

#endif // THINLOCKS_OBS_EVENTRING_H
