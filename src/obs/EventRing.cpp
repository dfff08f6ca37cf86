//===- obs/EventRing.cpp - Per-thread lock-event ring buffer --------------===//

#include "obs/EventRing.h"

#include <cassert>

using namespace thinlocks;
using namespace thinlocks::obs;

std::atomic<uint32_t> thinlocks::obs::TracingMode{0};

void thinlocks::obs::setTracing(bool Enabled) {
  TracingMode.store(Enabled ? 1 : 0, std::memory_order_relaxed);
}

const char *thinlocks::obs::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::None:
    return "none";
  case EventKind::ContendedAcquire:
    return "contended-acquire";
  case EventKind::Inflate:
    return "inflate";
  case EventKind::Deflate:
    return "deflate";
  case EventKind::Park:
    return "park";
  case EventKind::Wake:
    return "wake";
  case EventKind::Wait:
    return "wait";
  case EventKind::Notify:
    return "notify";
  case EventKind::NotifyAll:
    return "notify-all";
  case EventKind::Deadlock:
    return "deadlock";
  case EventKind::PolicyDecision:
    return "policy-decision";
  }
  return "unknown";
}

const char *thinlocks::obs::inflateCauseName(InflateCause Cause) {
  switch (Cause) {
  case InflateCause::Contention:
    return "contention";
  case InflateCause::Overflow:
    return "overflow";
  case InflateCause::Wait:
    return "wait";
  case InflateCause::Emergency:
    return "emergency";
  case InflateCause::Hint:
    return "hint";
  }
  return "unknown";
}

EventRing::EventRing(size_t Capacity) : Cap(Capacity), Mask(Capacity - 1) {
  assert(Capacity != 0 && (Capacity & (Capacity - 1)) == 0 &&
         "ring capacity must be a power of two");
}

EventRing::~EventRing() { delete[] Slots.load(std::memory_order_relaxed); }

EventRing::Slot *EventRing::allocateSlots() {
  Slot *Fresh = new Slot[Cap];
  Slots.store(Fresh, std::memory_order_release);
  return Fresh;
}

void EventRing::record(uint64_t Time, uint64_t Addr, uint64_t Meta,
                       uint64_t Arg) {
  Slot *S = Slots.load(std::memory_order_relaxed);
  if (TL_UNLIKELY(S == nullptr))
    S = allocateSlots();
  uint64_t H = Head.load(std::memory_order_relaxed);
  // Odd: writing.  The slot stores are releases so that a drain that
  // reads any of them also sees the slot claimed.
  Head.store(H + 1, std::memory_order_release);
  Slot &Out = S[(H / 2) & Mask];
  Out.Time.store(Time, std::memory_order_release);
  Out.Addr.store(Addr, std::memory_order_release);
  Out.Meta.store(Meta, std::memory_order_release);
  Out.Arg.store(Arg, std::memory_order_release);
  Head.store(H + 2, std::memory_order_release);
}
