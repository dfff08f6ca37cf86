//===- tests/fissile_test.cpp - FissileLock protocol tests ----------------===//
//
// White-box tests for protocols/FissileLock.h beyond the cross-protocol
// conformance suite: strict-FIFO handoff among queued waiters, no lost
// wakeups across the TS->queue crossover under sustained contention,
// recursion across the fast path, and the wait-morphing discipline
// (notify moves waiters without waking; releases grant one morphed
// waiter each; a notify concurrent with a timeout counts as a notify —
// the same contracts tests/park_test.cpp pins on the substrate).
//
//===----------------------------------------------------------------------===//

#include "heap/Heap.h"
#include "protocols/FissileLock.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace thinlocks;

namespace {

class FissileTest : public ::testing::Test {
protected:
  Heap TheHeap;
  ThreadRegistry Registry;
  FissileLock Locks;
  ThreadContext Main;
  const ClassInfo *Class = nullptr;

  void SetUp() override {
    Main = Registry.attach("main");
    Class = &TheHeap.classes().registerClass("F", 0);
  }
  void TearDown() override { Registry.detach(Main); }

  Object *newObject() { return TheHeap.allocate(*Class); }
};

} // namespace

TEST_F(FissileTest, FifoHandoffAmongQueuedWaiters) {
  // Three waiters queue behind an owner in a known order; barging can
  // only happen at the TS word, and nobody else arrives, so the MCS
  // queue's strict FIFO must decide the acquisition order exactly.
  Object *Obj = newObject();
  Locks.lock(Obj, Main);

  constexpr int NumWaiters = 3;
  std::atomic<int> NextSlot{0};
  int Order[NumWaiters] = {-1, -1, -1};
  std::vector<std::thread> Waiters;
  for (int T = 0; T < NumWaiters; ++T) {
    uint64_t QueuedBefore = Locks.stats().QueuedAcquires;
    Waiters.emplace_back([&, T] {
      ScopedThreadAttachment Attach(Registry, "queued");
      Locks.lock(Obj, Attach.context());
      Order[NextSlot.fetch_add(1, std::memory_order_relaxed)] = T;
      Locks.unlock(Obj, Attach.context());
    });
    // Wait until waiter T has entered the slow path, then give it time
    // to finish the Tail exchange before spawning its successor.
    while (Locks.stats().QueuedAcquires == QueuedBefore)
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  Locks.unlock(Obj, Main);
  for (std::thread &W : Waiters)
    W.join();
  for (int T = 0; T < NumWaiters; ++T)
    EXPECT_EQ(Order[T], T) << "queued waiters acquired out of order";
  EXPECT_GE(Locks.stats().Handoffs, 2u);
}

TEST_F(FissileTest, NoLostWakeupsAcrossCrossover) {
  // Sustained contention on one object drives every transition of the
  // TS->queue crossover: fast acquires, queue joins, head parks, MCS
  // handoffs, and lot wakes.  A lost wakeup anywhere hangs the test
  // (ctest timeout); the counter proves mutual exclusion held.
  Object *Obj = newObject();
  constexpr int NumThreads = 4;
  constexpr int PerThread = 8000;
  uint64_t Shared = 0; // Protected by Obj.
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T) {
    Workers.emplace_back([&] {
      ScopedThreadAttachment Attach(Registry, "crossover");
      for (int I = 0; I < PerThread; ++I) {
        Locks.lock(Obj, Attach.context());
        ++Shared;
        Locks.unlock(Obj, Attach.context());
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Shared, static_cast<uint64_t>(NumThreads) * PerThread);
  FissileLockStats S = Locks.stats();
  EXPECT_EQ(S.FastAcquires + S.QueuedAcquires,
            static_cast<uint64_t>(NumThreads) * PerThread);
}

TEST_F(FissileTest, RecursionAcrossFastAndTryPaths) {
  Object *Obj = newObject();
  Locks.lock(Obj, Main);
  EXPECT_TRUE(Locks.tryLock(Obj, Main));
  Locks.lock(Obj, Main);
  EXPECT_EQ(Locks.tryLockFor(Obj, Main, 1'000'000),
            TimedLockStatus::Acquired);
  EXPECT_EQ(Locks.lockDepth(Obj, Main), 4u);
  for (int I = 0; I < 4; ++I)
    Locks.unlock(Obj, Main);
  EXPECT_FALSE(Locks.holdsLock(Obj, Main));
  EXPECT_FALSE(Locks.unlockChecked(Obj, Main));
}

TEST_F(FissileTest, NotifyMorphsWithoutWaking) {
  // The wait-morphing contract: notify moves the waiter to the morphed
  // list but must not wake it while the notifier still owns the
  // monitor; the *release* grants it.
  Object *Obj = newObject();
  std::atomic<bool> Ready{false};
  std::atomic<bool> Returned{false};
  std::thread Waiter([&] {
    ScopedThreadAttachment Attach(Registry, "waiter");
    Locks.lock(Obj, Attach.context());
    Ready.store(true, std::memory_order_release);
    EXPECT_EQ(Locks.wait(Obj, Attach.context(), -1), WaitStatus::Notified);
    Returned.store(true, std::memory_order_release);
    Locks.unlock(Obj, Attach.context());
  });
  while (!Ready.load(std::memory_order_acquire))
    std::this_thread::yield();
  Locks.lock(Obj, Main); // Waiter is inside wait() once this acquires.
  uint64_t MorphsBefore = Locks.stats().Morphs;
  EXPECT_EQ(Locks.notify(Obj, Main), NotifyStatus::Ok);
  EXPECT_EQ(Locks.stats().Morphs, MorphsBefore + 1);
  // Still in the (morphed) wait set, and not runnable: hold the monitor
  // across a dwell and the waiter must not return from wait().
  EXPECT_EQ(Locks.waitSetSize(Obj), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(Returned.load(std::memory_order_acquire));
  Locks.unlock(Obj, Main); // The release grants the morphed waiter.
  Waiter.join();
  EXPECT_TRUE(Returned.load(std::memory_order_acquire));
  EXPECT_EQ(Locks.waitSetSize(Obj), 0u);
}

TEST_F(FissileTest, NotifyDuringTimeoutCountsAsNotify) {
  // A waiter whose deadline expires after it was morphed must treat the
  // notify as delivered: keep waiting for the release-time grant and
  // return Notified, never TimedOut (the notification would otherwise
  // be silently dropped).
  Object *Obj = newObject();
  std::atomic<bool> Ready{false};
  std::thread Waiter([&] {
    ScopedThreadAttachment Attach(Registry, "timed-waiter");
    Locks.lock(Obj, Attach.context());
    Ready.store(true, std::memory_order_release);
    EXPECT_EQ(Locks.wait(Obj, Attach.context(), /*TimeoutNanos=*/50'000'000),
              WaitStatus::Notified);
    EXPECT_TRUE(Locks.holdsLock(Obj, Attach.context()));
    Locks.unlock(Obj, Attach.context());
  });
  while (!Ready.load(std::memory_order_acquire))
    std::this_thread::yield();
  Locks.lock(Obj, Main);
  EXPECT_EQ(Locks.notify(Obj, Main), NotifyStatus::Ok);
  // Hold past the waiter's deadline: its timeout fires while morphed.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  Locks.unlock(Obj, Main);
  Waiter.join();
}

TEST_F(FissileTest, TimedWaitSelfUnlinksAndReacquires) {
  Object *Obj = newObject();
  Locks.lock(Obj, Main);
  EXPECT_EQ(Locks.waitSetSize(Obj), 0u);
  EXPECT_EQ(Locks.wait(Obj, Main, /*TimeoutNanos=*/5'000'000),
            WaitStatus::TimedOut);
  // Back out of the wait set entirely, owning the monitor again.
  EXPECT_TRUE(Locks.holdsLock(Obj, Main));
  EXPECT_EQ(Locks.waitSetSize(Obj), 0u);
  Locks.unlock(Obj, Main);
}

TEST_F(FissileTest, ReleaseGrantsMorphedWaitersOneAtATime) {
  // notifyAll morphs the whole wait set, but each final release grants
  // exactly one waiter; with 3 morphed waiters the monitor changes
  // hands 3 times with no stampede.  Every waiter increments under the
  // monitor, so the counter doubles as an exclusion check.
  Object *Obj = newObject();
  constexpr int NumWaiters = 3;
  std::atomic<int> Ready{0};
  uint64_t Woken = 0; // Protected by Obj.
  std::vector<std::thread> Waiters;
  for (int T = 0; T < NumWaiters; ++T) {
    Waiters.emplace_back([&] {
      ScopedThreadAttachment Attach(Registry, "morphed");
      Locks.lock(Obj, Attach.context());
      Ready.fetch_add(1);
      EXPECT_EQ(Locks.wait(Obj, Attach.context(), -1), WaitStatus::Notified);
      ++Woken;
      Locks.unlock(Obj, Attach.context());
    });
  }
  while (Ready.load() != NumWaiters)
    std::this_thread::yield();
  Locks.lock(Obj, Main);
  EXPECT_EQ(Locks.waitSetSize(Obj), static_cast<size_t>(NumWaiters));
  EXPECT_EQ(Locks.notifyAll(Obj, Main), NotifyStatus::Ok);
  EXPECT_EQ(Locks.waitSetSize(Obj), static_cast<size_t>(NumWaiters));
  Locks.unlock(Obj, Main);
  for (std::thread &W : Waiters)
    W.join();
  Locks.lock(Obj, Main);
  EXPECT_EQ(Woken, static_cast<uint64_t>(NumWaiters));
  Locks.unlock(Obj, Main);
  EXPECT_GE(Locks.stats().Morphs, static_cast<uint64_t>(NumWaiters));
}

TEST_F(FissileTest, TryLockForContendedTimesOutWithoutQueueing) {
  Object *Obj = newObject();
  Locks.lock(Obj, Main);
  std::thread Trier([&] {
    ScopedThreadAttachment Attach(Registry, "trier");
    uint64_t QueuedBefore = Locks.stats().QueuedAcquires;
    auto Start = std::chrono::steady_clock::now();
    EXPECT_EQ(Locks.tryLockFor(Obj, Attach.context(),
                               /*TimeoutNanos=*/20'000'000),
              TimedLockStatus::TimedOut);
    auto Elapsed = std::chrono::steady_clock::now() - Start;
    EXPECT_GE(Elapsed, std::chrono::milliseconds(15));
    // The impatient path never joins the MCS queue.
    EXPECT_EQ(Locks.stats().QueuedAcquires, QueuedBefore);
  });
  Trier.join();
  Locks.unlock(Obj, Main);
}

TEST_F(FissileTest, StatsAndCellAccounting) {
  Object *A = newObject();
  Object *B = newObject();
  Locks.lock(A, Main);
  Locks.unlock(A, Main);
  Locks.lock(B, Main);
  Locks.unlock(B, Main);
  EXPECT_EQ(Locks.cellCount(), 2u);
  FissileLockStats S = Locks.stats();
  EXPECT_GE(S.FastAcquires, 2u);
}
