//===- fatlock/FatLock.cpp - Heavy-weight Java monitor --------------------===//

#include "fatlock/FatLock.h"

#include "core/LockStats.h"
#include "park/Parker.h"

#include <cassert>

using namespace thinlocks;

void FatLock::recordWakeLatency(const Parker *Pk) {
  if (LockStats *Stats = StatsSink.load(std::memory_order_relaxed))
    if (uint64_t Nanos = Pk->lastBlockedWakeNanos())
      Stats->recordWakeLatency(Nanos);
}

void FatLock::grantTo(Waiter *Node, uint16_t Index) {
  assert(claimable(Node) && "granting out of FIFO order");
  EntryQueue.popFront();
  Owner = Index;
  recordWakeLatency(Node->Pk);
}

bool FatLock::acquireSlow(UniqueLock &Guard, const ThreadContext &Thread,
                          std::optional<int64_t> TimeoutNanos,
                          const Tick *Ticker) {
  if (Owner == 0 && EntryQueue.empty()) {
    // Uncontended: no deadline needed (computing one up front would tax
    // every post-inflation acquisition with a clock read).
    Owner = Thread.index();
    return true;
  }
  // One attempt that never queues (a non-positive timeout never means
  // "wait forever"); standing down for a non-empty queue keeps entry
  // FIFO.
  if (TimeoutNanos && *TimeoutNanos <= 0)
    return false;
  Waiter Node;
  Node.Pk = Thread.parker();
  EntryQueue.pushBack(&Node);
  std::optional<Clock::time_point> Deadline;
  if (TimeoutNanos)
    Deadline = Clock::now() + std::chrono::nanoseconds(*TimeoutNanos);
  return awaitGrant(Guard, Node, Thread.index(), Deadline, Ticker);
}

bool FatLock::awaitGrant(UniqueLock &Guard, Waiter &Node, uint16_t Index,
                         std::optional<Clock::time_point> Deadline,
                         const Tick *Ticker) {
  assert(!(Deadline && Ticker) && "a ticking wait has no deadline");
  std::optional<Clock::time_point> NextTick;
  if (Ticker)
    NextTick = Clock::now() + std::chrono::nanoseconds(Ticker->PeriodNanos);
  while (!claimable(&Node)) {
    if (Deadline && Clock::now() >= *Deadline) {
      [[maybe_unused]] bool Queued = EntryQueue.remove(&Node);
      assert(Queued && "timed-out entrant not in the entry queue");
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
    if (NextTick && Clock::now() >= *NextTick) {
      // The node keeps its place while the tick runs.  The mutex is
      // dropped because the tick may read monitors, this one included;
      // a handoff meanwhile leaves a sticky token for the next park.
      Guard.unlock();
      Ticker->Run(Ticker->Context);
      Guard.lock();
      NextTick = Clock::now() + std::chrono::nanoseconds(Ticker->PeriodNanos);
      continue;
    }
    // Park outside the mutex; a releaser that hands off in this window
    // leaves a sticky token, so the park below returns immediately.
    Guard.unlock();
    if (Deadline || NextTick)
      Node.Pk->parkUntil(Deadline ? *Deadline : *NextTick);
    else
      Node.Pk->park();
    Guard.lock();
  }
  grantTo(&Node, Index);
  return true;
}

FatLock::TimedResult FatLock::lockImpl(const ThreadContext &Thread,
                                       std::optional<int64_t> TimeoutNanos,
                                       uint32_t Holds, const Tick *Ticker) {
  assert(Thread.isValid() && "locking with an unattached thread");
  assert(Holds > 0 && "an acquisition takes at least one hold");
  UniqueLock Guard(Mu);
  if (Retired)
    return TimedResult::Retired;
  if (Owner == Thread.index()) {
    Hold += Holds;
    return TimedResult::Acquired;
  }
  // Being queued blocks retirement, so the monitor stays live until we
  // either acquire or dequeue ourselves.
  if (!acquireSlow(Guard, Thread, TimeoutNanos, Ticker))
    return TimedResult::TimedOut;
  Hold = Holds;
  return TimedResult::Acquired;
}

FatLock::ReleaseResult FatLock::unlock(const ThreadContext &Thread,
                                       bool MayRetire) {
  UniqueLock Guard(Mu);
  if (!ownedBy(Thread))
    return ReleaseResult::NotOwner;
  assert(Hold > 0 && "owner with zero hold count");
  if (MayRetire && Hold == 1 && EntryQueue.empty() && WaitSet.empty()) {
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
  if (Retired || Owner != 0 || !EntryQueue.empty() || !WaitSet.empty())
    return false;
  // Owner == 0 makes this mutually exclusive with unlock() (which
  // requires ownership), and an empty entry queue means no handoff
  // claim is outstanding: nobody can acquire this monitor except
  // through lock(), which now rejects it.
  Retired = true;
  return true;
}

WaitStatus FatLock::wait(const ThreadContext &Thread, int64_t TimeoutNanos) {
  UniqueLock Guard(Mu);
  if (!ownedBy(Thread))
    return WaitStatus::NotOwner;
  // From here until reacquisition completes we are in the wait set, in
  // the entry queue or the owner whenever Mu is free, which is what
  // keeps the monitor from retiring under us.
  Waiter Node;
  Node.Pk = Thread.parker();
  WaitSet.pushBack(&Node);
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
      [[maybe_unused]] bool Queued = WaitSet.remove(&Node);
      assert(Queued && "timed-out waiter not in the wait set");
      break;
    }
    Guard.unlock();
    if (Next) {
      Next->unpark();
      Next = nullptr;
    }
    // A wake racing this window leaves a sticky token; stale tokens and
    // spurious wakes just re-run the check.
    Reason = Deadline ? Node.Pk->parkUntil(*Deadline) : Node.Pk->park();
    Guard.lock();
  }
  // A wait that expired before its first park still owes the head its
  // wake; without it we would queue behind a head nobody woke.
  if (Next)
    Next->unpark();
  // Phase 2: reacquire, unbounded like any lock().  A notified thread is
  // already queued and keeps sleeping on the same Parker until the
  // handoff that grants it; a timed-out one queues like any entrant.
  if (Node.Notified)
    awaitGrant(Guard, Node, Thread.index(), std::nullopt, nullptr);
  else
    acquireSlow(Guard, Thread, std::nullopt, nullptr);
  Hold = SavedHold;
  return Node.Notified ? WaitStatus::Notified : WaitStatus::TimedOut;
}

NotifyStatus FatLock::notify(const ThreadContext &Thread, bool All,
                             uint32_t *Morphed) {
  LockGuard Guard(Mu);
  if (!ownedBy(Thread))
    return NotifyStatus::NotOwner;
  // Wait morphing: move the longest waiter (or, for notifyAll, the whole
  // wait set in FIFO order) to the entry-queue tail without waking it.
  // The notifier still holds the monitor, so a waiter could not acquire
  // anyway; it sleeps through until the release that makes it the
  // claimable head, costing one block instead of two, and a broadcast of
  // N waiters costs zero wakes here.  (Prewaking the morphed set was
  // tried and measured worse on both wall and CPU time: the waiters wake
  // before their turn, re-park, and the broadcast pays N futex wakes up
  // front for nothing.)
  uint32_t Moved = 0;
  while (Waiter *Node = WaitSet.popFront()) {
    Node->Notified = true;
    EntryQueue.pushBack(Node);
    ++Moved;
    if (!All)
      break;
  }
  if (Morphed)
    *Morphed = Moved;
  return NotifyStatus::Ok;
}

bool FatLock::heldBy(const ThreadContext &Thread) const {
  LockGuard Guard(Mu);
  return ownedBy(Thread);
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
  return EntryQueue.size();
}

uint32_t FatLock::waitSetSize() const {
  LockGuard Guard(Mu);
  return WaitSet.size();
}
