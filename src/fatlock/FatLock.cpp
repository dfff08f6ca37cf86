//===- fatlock/FatLock.cpp - Heavy-weight Java monitor --------------------===//

#include "fatlock/FatLock.h"

#include "core/LockStats.h"
#include "park/Parker.h"

#include <cassert>

using namespace thinlocks;

void FatLock::pushEntry(EntryNode *Node) {
  (EntryTail ? EntryTail->Next : EntryHead) = Node;
  EntryTail = Node;
  ++EntryLen;
}

void FatLock::removeEntry(EntryNode *Node) {
  EntryNode *Prev = nullptr;
  for (EntryNode *Cur = EntryHead; Cur; Prev = Cur, Cur = Cur->Next) {
    if (Cur != Node)
      continue;
    (Prev ? Prev->Next : EntryHead) = Cur->Next;
    if (EntryTail == Cur)
      EntryTail = Prev;
    Cur->Next = nullptr;
    --EntryLen;
    return;
  }
  assert(false && "removeEntry: node not queued");
}

Parker *FatLock::entryHandoffTarget() const {
  return EntryHead ? EntryHead->Pk : nullptr;
}

void FatLock::recordWakeLatency(const Parker *Pk) {
  if (LockStats *Stats = StatsSink.load(std::memory_order_relaxed))
    if (uint64_t Nanos = Pk->lastBlockedWakeNanos())
      Stats->recordWakeLatency(Nanos);
}

void FatLock::grantTo(EntryNode *Node, uint16_t Index) {
  assert(claimable(Node) && "granting out of FIFO order");
  removeEntry(Node);
  Owner = Index;
  recordWakeLatency(Node->Pk);
}

bool FatLock::acquireSlow(UniqueLock &Guard, const ThreadContext &Thread,
                          std::optional<int64_t> TimeoutNanos) {
  if (Owner == 0 && EntryHead == nullptr) {
    // Uncontended: no deadline needed (computing one up front would tax
    // every post-inflation acquisition with a clock read).
    Owner = Thread.index();
    return true;
  }
  if (TimeoutNanos && *TimeoutNanos <= 0) {
    // One attempt that never queues (a non-positive timeout never means
    // "wait forever"); standing down for a non-empty queue keeps entry
    // FIFO.
    ++Counters.Timeouts;
    return false;
  }
  ++Counters.ContendedAcquisitions;
  EntryNode Node;
  Node.Pk = Thread.parker();
  pushEntry(&Node);
  std::optional<Clock::time_point> Deadline;
  if (TimeoutNanos)
    Deadline = Clock::now() + std::chrono::nanoseconds(*TimeoutNanos);
  return awaitGrant(Guard, Node, Thread.index(), Deadline);
}

bool FatLock::awaitGrant(UniqueLock &Guard, EntryNode &Node, uint16_t Index,
                         std::optional<Clock::time_point> Deadline) {
  while (!claimable(&Node)) {
    if (Deadline && Clock::now() >= *Deadline) {
      ++Counters.Timeouts;
      removeEntry(&Node);
      // If the monitor is free we may have just consumed (or be about
      // to consume) the releaser's handoff; pass it to the new head so
      // the wake is not lost with our departure.
      if (Parker *Next = Owner == 0 ? entryHandoffTarget() : nullptr) {
        Guard.unlock();
        Next->unpark();
        Guard.lock();
      }
      return false;
    }
    // Park outside the mutex; a releaser that hands off in this window
    // leaves a sticky token, so the park below returns immediately.
    Guard.unlock();
    if (Deadline)
      Node.Pk->parkUntil(*Deadline);
    else
      Node.Pk->park();
    Guard.lock();
  }
  grantTo(&Node, Index);
  return true;
}

FatLock::TimedResult FatLock::lock(const ThreadContext &Thread,
                                   std::optional<int64_t> TimeoutNanos,
                                   uint32_t Holds) {
  assert(Thread.isValid() && "locking with an unattached thread");
  assert(Holds > 0 && "an acquisition takes at least one hold");
  UniqueLock Guard(Mu);
  if (Retired)
    return TimedResult::Retired;
  if (Owner == Thread.index()) {
    ++Counters.Acquisitions;
    Hold += Holds;
    return TimedResult::Acquired;
  }
  // Being queued blocks retirement, so the monitor stays live until we
  // either acquire or dequeue ourselves.
  if (!acquireSlow(Guard, Thread, TimeoutNanos))
    return TimedResult::TimedOut;
  ++Counters.Acquisitions;
  Hold = Holds;
  return TimedResult::Acquired;
}

FatLock::ReleaseResult FatLock::unlock(const ThreadContext &Thread,
                                       bool MayRetire) {
  UniqueLock Guard(Mu);
  if (Owner != Thread.index())
    return ReleaseResult::NotOwner;
  assert(Hold > 0 && "owner with zero hold count");
  if (MayRetire && Hold == 1 && !Pinned && EntryHead == nullptr &&
      ThreadsInWait == 0) {
    // Fully quiescent: nobody is queued and nobody is waiting.  Retire
    // instead of releasing; late arrivals that already resolved this
    // monitor bounce out of lock() and re-read the object's lock word.
    Hold = 0;
    Owner = 0;
    Retired = true;
    return ReleaseResult::RetiredNow;
  }
  Parker *Next = nullptr;
  if (--Hold == 0) {
    Owner = 0;
    // Direct FIFO handoff: wake exactly the head of the entry queue; it
    // has the exclusive claim on the free monitor.
    Next = entryHandoffTarget();
  }
  // Unpark after dropping the mutex: the wakee immediately relocks it.
  Guard.unlock();
  if (Next)
    Next->unpark();
  return ReleaseResult::Released;
}

bool FatLock::isRetired() const {
  LockGuard Guard(Mu);
  return Retired;
}

bool FatLock::retireIfQuiescent() {
  LockGuard Guard(Mu);
  if (Retired || Pinned || Owner != 0 || EntryHead != nullptr ||
      ThreadsInWait != 0)
    return false;
  // Owner == 0 makes this mutually exclusive with unlock() (which
  // requires ownership), and an empty entry queue means no handoff
  // claim is outstanding: nobody can acquire this monitor except
  // through lock(), which now rejects it.
  Retired = true;
  return true;
}

void FatLock::pin() {
  LockGuard Guard(Mu);
  Pinned = true;
}

bool FatLock::isPinned() const {
  LockGuard Guard(Mu);
  return Pinned;
}

void FatLock::removeWaiter(WaitNode *Node) {
  WaitNode *Prev = nullptr;
  for (WaitNode *Cur = WaitHead; Cur; Prev = Cur, Cur = Cur->Next) {
    if (Cur != Node)
      continue;
    (Prev ? Prev->Next : WaitHead) = Cur->Next;
    if (WaitTail == Cur)
      WaitTail = Prev;
    Cur->Next = nullptr;
    --WaitLen;
    return;
  }
}

FatLock::WaitResult FatLock::wait(const ThreadContext &Thread,
                                  int64_t TimeoutNanos) {
  UniqueLock Guard(Mu);
  assert(Owner == Thread.index() && "wait by non-owner");
  // From here until reacquisition completes we are a user the
  // quiescence check must see, even while absent from the wait set and
  // the entry queue (the notify -> re-queue window).
  ++ThreadsInWait;

  WaitNode Node;
  Node.Entry.Pk = Thread.parker();
  (WaitTail ? WaitTail->Next : WaitHead) = &Node;
  WaitTail = &Node;
  ++WaitLen;
  uint32_t SavedHold = Hold;
  std::optional<Clock::time_point> Deadline;
  if (TimeoutNanos >= 0)
    Deadline = Clock::now() + std::chrono::nanoseconds(TimeoutNanos);

  // Release the monitor completely (Java semantics: all holds at once)
  // and hand it to the entry-queue head.
  Owner = 0;
  Hold = 0;
  Parker *Next = entryHandoffTarget();

  // Phase 1: in the wait set, parked until notified (morphed onto the
  // entry queue) or timed out.
  Parker::WakeReason Reason = Parker::WakeReason::Spurious;
  while (!Node.Notified) {
    if (Deadline && (Reason == Parker::WakeReason::TimedOut ||
                     Clock::now() >= *Deadline)) {
      removeWaiter(&Node);
      ++Counters.Timeouts;
      break;
    }
    Guard.unlock();
    if (Next) {
      Next->unpark();
      Next = nullptr;
    }
    // A wake racing this window leaves a sticky token; stale tokens and
    // spurious wakes just re-run the check.
    Reason = Deadline ? Node.Entry.Pk->parkUntil(*Deadline)
                      : Node.Entry.Pk->park();
    Guard.lock();
  }
  // A wait that expired before its first park still owes the head its
  // wake; without it we would queue behind a head nobody woke.
  if (Next)
    Next->unpark();
  // Phase 2: reacquire, unbounded like any lock().  A notified thread is
  // already queued and keeps sleeping on the same Parker until the
  // handoff that grants it; a timed-out one queues like any entrant.
  ++Counters.Acquisitions;
  if (!Node.Notified) {
    acquireSlow(Guard, Thread, std::nullopt);
  } else {
    if (!claimable(&Node.Entry))
      ++Counters.ContendedAcquisitions;
    awaitGrant(Guard, Node.Entry, Thread.index(), std::nullopt);
  }
  Hold = SavedHold;
  assert(ThreadsInWait > 0 && "wait bookkeeping out of balance");
  --ThreadsInWait;
  return Node.Notified ? WaitResult::Notified : WaitResult::TimedOut;
}

bool FatLock::notify([[maybe_unused]] const ThreadContext &Thread) {
  LockGuard Guard(Mu);
  assert(Owner == Thread.index() && "notify by non-owner");
  if (!WaitHead)
    return false;
  // Wait morphing: move the longest waiter from the wait set to the
  // entry-queue tail without waking it.  The notifier still holds the
  // monitor, so the waiter could not acquire anyway; it sleeps through
  // until the handoff that grants it, costing one block instead of two.
  WaitNode *Node = WaitHead;
  removeWaiter(Node);
  Node->Notified = true;
  pushEntry(&Node->Entry);
  return true;
}

uint32_t FatLock::notifyAll([[maybe_unused]] const ThreadContext &Thread) {
  LockGuard Guard(Mu);
  assert(Owner == Thread.index() && "notifyAll by non-owner");
  // Morph the whole wait set onto the entry queue in FIFO order — no
  // thundering herd: each waiter sleeps through until the release that
  // makes it the claimable head, so a broadcast of N waiters costs zero
  // wakes here and exactly one block per waiter overall.  (Prewaking the
  // morphed set was tried and measured worse on both wall and CPU time:
  // the waiters wake before their turn, re-park, and the broadcast pays
  // N futex wakes up front for nothing.)
  uint32_t Moved = 0;
  while (WaitNode *Node = WaitHead) {
    removeWaiter(Node);
    Node->Notified = true;
    pushEntry(&Node->Entry);
    ++Moved;
  }
  return Moved;
}

bool FatLock::heldBy(const ThreadContext &Thread) const {
  LockGuard Guard(Mu);
  return Owner == Thread.index() && Thread.isValid();
}

uint16_t FatLock::ownerIndex() const {
  LockGuard Guard(Mu);
  return Owner;
}

uint32_t FatLock::holdCount() const {
  LockGuard Guard(Mu);
  return Hold;
}

uint32_t FatLock::entryQueueLength() const {
  LockGuard Guard(Mu);
  return EntryLen;
}

uint32_t FatLock::waitSetSize() const {
  LockGuard Guard(Mu);
  return WaitLen;
}

FatLockStats FatLock::stats() const {
  LockGuard Guard(Mu);
  return Counters;
}
