//===- park/ParkingLot.cpp - Address-keyed queues of parked threads -------===//

#include "park/ParkingLot.h"

#include "support/FailPoint.h"

#include <thread>
#include <vector>

using namespace thinlocks;

ParkingLot &ParkingLot::global() {
  static ParkingLot Lot;
  return Lot;
}

size_t ParkingLot::bucketIndexOf(const void *Key) {
  // Fibonacci hash over the address with the low alignment bits dropped;
  // object headers are at least 8-byte aligned so the low bits carry no
  // entropy.
  uintptr_t Addr = reinterpret_cast<uintptr_t>(Key) >> 3;
  return (Addr * UINT64_C(0x9E3779B97F4A7C15) >> 58) % NumBuckets;
}

Parker *ParkingLot::takeFirst(Bucket &B, const void *Key) {
  WaitNode *Node =
      B.Queue.removeFirst([Key](const WaitNode &N) { return N.Key == Key; });
  if (!Node)
    return nullptr;
  Node->Queued = false;
  return Node->Pk;
}

ParkingLot::ParkResult
ParkingLot::parkImpl(const void *Key, Parker &Pk, bool (*Validate)(void *),
                     void *Ctx, bool HasDeadline,
                     std::chrono::steady_clock::time_point Deadline) {
  Bucket &B = bucketFor(Key);
  WaitNode Node;
  Node.Pk = &Pk;
  Node.Key = Key;
  {
    LockGuard G(B.Mu);
    if (!Validate(Ctx))
      return ParkResult::Invalid;
    Node.Queued = true;
    B.Queue.pushBack(&Node);
  }
  for (;;) {
    Parker::WakeReason R = HasDeadline ? Pk.parkUntil(Deadline) : Pk.park();
    if (TL_FAILPOINT(ParkingLotTimeoutRace)) {
      // Hold open the window between waking and re-taking the bucket
      // mutex so a concurrent unparkOne can capture this node first.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    UniqueLock G(B.Mu);
    if (!Node.Queued) {
      // A waker dequeued us.
      if (HasDeadline && (R == Parker::WakeReason::TimedOut ||
                          std::chrono::steady_clock::now() >= Deadline)) {
        // ...but we were on our way out: the deadline had already
        // expired when the waker captured this node, so its one wake
        // landed on a waiter that is abandoning the queue.  Silently
        // keeping it would strand whoever the waker meant to run next,
        // so re-issue the wake to the new FIFO head for this key.  The
        // next node must be *unlinked* here, not merely unparked — an
        // unparked-but-still-queued waiter with no deadline would
        // classify the token as spurious and re-sleep forever.
        Parker *Next = takeFirst(B, Key);
        G.unlock();
        if (Next)
          Next->unpark();
        return ParkResult::TimedOut;
      }
      // If we got here on a spurious wake the waker's token may still
      // be in flight; it will surface as one harmless spurious wake at
      // this thread's next park site.
      return ParkResult::Unparked;
    }
    if (HasDeadline && (R == Parker::WakeReason::TimedOut ||
                        std::chrono::steady_clock::now() >= Deadline)) {
      if (!B.Queue.remove(&Node))
        tlUnreachable("parkImpl: queued node not in its bucket");
      Node.Queued = false;
      return ParkResult::TimedOut;
    }
    // Still queued with time to spare: the wake was spurious or the
    // token was stale (an old handoff for a park we already finished).
    // Loop and sleep again.
  }
}

size_t ParkingLot::unparkOne(const void *Key) {
  Bucket &B = bucketFor(Key);
  Parker *Target = nullptr;
  {
    LockGuard G(B.Mu);
    Target = takeFirst(B, Key);
  }
  // Unpark after dropping the bucket mutex: the wakee's first action is
  // to take that mutex, and waking it while we still hold it would
  // convoy every wake behind the bucket.
  if (!Target)
    return 0;
  Target->unpark();
  return 1;
}

size_t ParkingLot::unparkAll(const void *Key) {
  Bucket &B = bucketFor(Key);
  // Capture targets under the mutex; once a node is unlinked its stack
  // frame can disappear as soon as its owner re-checks, so only the
  // registry-lifetime Parker pointers survive the unlock.
  std::vector<Parker *> Targets;
  {
    LockGuard G(B.Mu);
    B.Queue.removeAll([&](WaitNode &N) {
      if (N.Key != Key)
        return false;
      Targets.push_back(N.Pk);
      N.Queued = false;
      return true;
    });
  }
  for (Parker *Target : Targets)
    Target->unpark();
  return Targets.size();
}

size_t ParkingLot::queuedOn(const void *Key) {
  Bucket &B = bucketFor(Key);
  LockGuard G(B.Mu);
  return B.Queue.countIf([Key](const WaitNode &N) { return N.Key == Key; });
}
