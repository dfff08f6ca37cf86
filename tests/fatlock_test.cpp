//===- tests/fatlock_test.cpp - Heavy monitor tests -----------------------===//

#include "fatlock/FatLock.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace thinlocks;

namespace {

class FatLockTest : public ::testing::Test {
protected:
  ThreadRegistry Registry;
  FatLock Lock;
  ThreadContext Main;

  void SetUp() override { Main = Registry.attach("main"); }
  void TearDown() override { Registry.detach(Main); }
};

} // namespace

TEST_F(FatLockTest, LockUnlockBasic) {
  EXPECT_EQ(Lock.ownerIndex(), 0);
  Lock.lock(Main);
  EXPECT_TRUE(Lock.heldBy(Main));
  EXPECT_EQ(Lock.ownerIndex(), Main.index());
  EXPECT_EQ(Lock.holdCount(), 1u);
  Lock.unlock(Main);
  EXPECT_FALSE(Lock.heldBy(Main));
  EXPECT_EQ(Lock.ownerIndex(), 0);
}

TEST_F(FatLockTest, RecursiveLockCounts) {
  for (int I = 1; I <= 10; ++I) {
    Lock.lock(Main);
    EXPECT_EQ(Lock.holdCount(), static_cast<uint32_t>(I));
  }
  for (int I = 9; I >= 0; --I) {
    Lock.unlock(Main);
    EXPECT_EQ(Lock.holdCount(), static_cast<uint32_t>(I));
  }
  EXPECT_FALSE(Lock.heldBy(Main));
}

TEST_F(FatLockTest, TryLockSucceedsWhenFree) {
  EXPECT_TRUE(Lock.tryLock(Main));
  EXPECT_TRUE(Lock.tryLock(Main)); // Recursive tryLock also succeeds.
  EXPECT_EQ(Lock.holdCount(), 2u);
  Lock.unlock(Main);
  Lock.unlock(Main);
}

TEST_F(FatLockTest, TryLockFailsWhenHeldByOther) {
  Lock.lock(Main);
  std::thread Other([this] {
    ScopedThreadAttachment Attachment(Registry, "other");
    EXPECT_FALSE(Lock.tryLock(Attachment.context()));
  });
  Other.join();
  Lock.unlock(Main);
}

TEST_F(FatLockTest, UnlockCheckedRejectsNonOwner) {
  Lock.lock(Main);
  std::thread Other([this] {
    ScopedThreadAttachment Attachment(Registry, "other");
    EXPECT_FALSE(Lock.unlockChecked(Attachment.context()));
  });
  Other.join();
  EXPECT_TRUE(Lock.unlockChecked(Main));
  EXPECT_FALSE(Lock.unlockChecked(Main)); // Now unowned.
}

TEST_F(FatLockTest, MutualExclusionUnderContention) {
  constexpr int NumThreads = 4;
  constexpr int PerThread = 5000;
  uint64_t Shared = 0; // Protected by Lock.
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T) {
    Workers.emplace_back([&] {
      ScopedThreadAttachment Attachment(Registry);
      for (int I = 0; I < PerThread; ++I) {
        Lock.lock(Attachment.context());
        ++Shared;
        Lock.unlock(Attachment.context());
      }
    });
  }
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Shared, static_cast<uint64_t>(NumThreads) * PerThread);
  FatLockStats Stats = Lock.stats();
  EXPECT_EQ(Stats.Acquisitions, static_cast<uint64_t>(NumThreads) * PerThread);
}

TEST_F(FatLockTest, EntryIsFifo) {
  Lock.lock(Main);
  std::vector<int> Order;
  std::atomic<int> Started{0};
  std::vector<std::thread> Workers;
  std::mutex OrderMutex;
  for (int T = 0; T < 3; ++T) {
    Workers.emplace_back([&, T] {
      ScopedThreadAttachment Attachment(Registry);
      // Serialize queue entry so arrival order is deterministic.
      while (Started.load() != T)
        std::this_thread::yield();
      Started.store(T); // No-op; keeps intent explicit.
      // Signal arrival by bumping Started after we are provably queued is
      // impossible from outside, so approximate: bump, then lock.
      Started.fetch_add(1);
      Lock.lock(Attachment.context());
      {
        std::lock_guard<std::mutex> Guard(OrderMutex);
        Order.push_back(T);
      }
      Lock.unlock(Attachment.context());
    });
    // Wait until thread T has bumped Started and (very likely) enqueued.
    while (Started.load() != T + 1)
      std::this_thread::yield();
    // Give it time to actually block on the entry queue.
    while (Lock.entryQueueLength() != static_cast<uint32_t>(T + 1))
      std::this_thread::yield();
  }
  Lock.unlock(Main);
  for (auto &W : Workers)
    W.join();
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Order[0], 0);
  EXPECT_EQ(Order[1], 1);
  EXPECT_EQ(Order[2], 2);
}

TEST_F(FatLockTest, WaitReleasesAllHoldsAndRestoresThem) {
  std::atomic<bool> SawUnowned{false};
  std::atomic<bool> WaiterReady{false};

  std::thread Waiter([&] {
    ScopedThreadAttachment Attachment(Registry, "waiter");
    Lock.lock(Attachment.context());
    Lock.lock(Attachment.context());
    Lock.lock(Attachment.context());
    EXPECT_EQ(Lock.holdCount(), 3u);
    WaiterReady.store(true);
    FatLock::WaitResult Result = Lock.wait(Attachment.context());
    EXPECT_EQ(Result, FatLock::WaitResult::Notified);
    // All three holds restored after reacquisition.
    EXPECT_EQ(Lock.holdCount(), 3u);
    EXPECT_TRUE(Lock.heldBy(Attachment.context()));
    Lock.unlock(Attachment.context());
    Lock.unlock(Attachment.context());
    Lock.unlock(Attachment.context());
  });

  while (!WaiterReady.load() || Lock.waitSetSize() == 0)
    std::this_thread::yield();

  // While the waiter sleeps, the monitor must be free to acquire.
  Lock.lock(Main);
  SawUnowned.store(true);
  EXPECT_TRUE(Lock.notify(Main));
  Lock.unlock(Main);

  Waiter.join();
  EXPECT_TRUE(SawUnowned.load());
}

TEST_F(FatLockTest, TimedWaitTimesOut) {
  Lock.lock(Main);
  auto Start = std::chrono::steady_clock::now();
  FatLock::WaitResult Result =
      Lock.wait(Main, /*TimeoutNanos=*/20'000'000); // 20ms
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_EQ(Result, FatLock::WaitResult::TimedOut);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
                .count(),
            15);
  EXPECT_TRUE(Lock.heldBy(Main)); // Reacquired after timeout.
  EXPECT_EQ(Lock.stats().Timeouts, 1u);
  Lock.unlock(Main);
}

TEST_F(FatLockTest, ExpiredWaitStillHandsMonitorToQueuedEntrant) {
  // A wait whose deadline has passed before it could park must still
  // wake the entrant it handed the monitor to; otherwise the waiter
  // queues behind a head nobody woke and both threads sleep forever.
  Lock.lock(Main);
  std::atomic<bool> EntrantAcquired{false};
  std::thread Entrant([&] {
    ScopedThreadAttachment Attachment(Registry);
    Lock.lock(Attachment.context());
    EntrantAcquired.store(true);
    Lock.unlock(Attachment.context());
  });
  while (Lock.entryQueueLength() == 0)
    std::this_thread::yield();
  EXPECT_EQ(Lock.wait(Main, /*TimeoutNanos=*/0),
            FatLock::WaitResult::TimedOut);
  EXPECT_TRUE(EntrantAcquired.load()); // FIFO: the entrant went first.
  EXPECT_TRUE(Lock.heldBy(Main));
  Lock.unlock(Main);
  Entrant.join();
}

TEST_F(FatLockTest, NotifyWithoutWaitersReturnsFalse) {
  Lock.lock(Main);
  EXPECT_FALSE(Lock.notify(Main));
  EXPECT_EQ(Lock.notifyAll(Main), 0u);
  Lock.unlock(Main);
}

TEST_F(FatLockTest, NotifyWakesExactlyOneInFifoOrder) {
  constexpr int NumWaiters = 3;
  std::vector<int> WakeOrder;
  std::mutex OrderMutex;
  std::vector<std::thread> Waiters;
  std::atomic<int> Queued{0};

  for (int T = 0; T < NumWaiters; ++T) {
    Waiters.emplace_back([&, T] {
      ScopedThreadAttachment Attachment(Registry);
      Lock.lock(Attachment.context());
      Queued.fetch_add(1);
      Lock.wait(Attachment.context());
      {
        std::lock_guard<std::mutex> Guard(OrderMutex);
        WakeOrder.push_back(T);
      }
      Lock.unlock(Attachment.context());
    });
    // Ensure FIFO arrival into the wait set.
    while (Lock.waitSetSize() != static_cast<uint32_t>(T + 1))
      std::this_thread::yield();
  }
  EXPECT_EQ(Queued.load(), NumWaiters);

  for (int T = 0; T < NumWaiters; ++T) {
    Lock.lock(Main);
    EXPECT_TRUE(Lock.notify(Main));
    Lock.unlock(Main);
    // Wait for the woken thread to finish before the next notify.
    while (true) {
      std::lock_guard<std::mutex> Guard(OrderMutex);
      if (WakeOrder.size() == static_cast<size_t>(T + 1))
        break;
    }
  }
  for (auto &W : Waiters)
    W.join();
  ASSERT_EQ(WakeOrder.size(), 3u);
  EXPECT_EQ(WakeOrder[0], 0);
  EXPECT_EQ(WakeOrder[1], 1);
  EXPECT_EQ(WakeOrder[2], 2);
}

TEST_F(FatLockTest, NotifyAllWakesEveryWaiter) {
  constexpr int NumWaiters = 4;
  std::atomic<int> Woken{0};
  std::vector<std::thread> Waiters;
  for (int T = 0; T < NumWaiters; ++T) {
    Waiters.emplace_back([&] {
      ScopedThreadAttachment Attachment(Registry);
      Lock.lock(Attachment.context());
      FatLock::WaitResult Result = Lock.wait(Attachment.context());
      EXPECT_EQ(Result, FatLock::WaitResult::Notified);
      Woken.fetch_add(1);
      Lock.unlock(Attachment.context());
    });
  }
  while (Lock.waitSetSize() != NumWaiters)
    std::this_thread::yield();
  Lock.lock(Main);
  EXPECT_EQ(Lock.notifyAll(Main), static_cast<uint32_t>(NumWaiters));
  Lock.unlock(Main);
  for (auto &W : Waiters)
    W.join();
  EXPECT_EQ(Woken.load(), NumWaiters);
  EXPECT_EQ(Lock.waitSetSize(), 0u);
}

TEST_F(FatLockTest, LockWithCountTransfersNesting) {
  Lock.lockWithCount(Main, 257);
  EXPECT_TRUE(Lock.heldBy(Main));
  EXPECT_EQ(Lock.holdCount(), 257u);
  for (int I = 0; I < 257; ++I)
    Lock.unlock(Main);
  EXPECT_FALSE(Lock.heldBy(Main));
}

TEST_F(FatLockTest, StatsCountContention) {
  Lock.lock(Main);
  std::thread Other([this] {
    ScopedThreadAttachment Attachment(Registry);
    Lock.lock(Attachment.context());
    Lock.unlock(Attachment.context());
  });
  while (Lock.entryQueueLength() == 0)
    std::this_thread::yield();
  Lock.unlock(Main);
  Other.join();
  FatLockStats Stats = Lock.stats();
  EXPECT_EQ(Stats.Acquisitions, 2u);
  EXPECT_EQ(Stats.ContendedAcquisitions, 1u);
}

//===----------------------------------------------------------------------===//
// Bounded, retiring and merging entry (the deflation and emergency paths)
//===----------------------------------------------------------------------===//

namespace {

/// Holds \p Lock from a second thread until release() is called.
class Holder {
public:
  Holder(ThreadRegistry &Registry, FatLock &Lock)
      : Thread([&Registry, &Lock, this] {
          ScopedThreadAttachment Attachment(Registry, "holder");
          Lock.lock(Attachment.context());
          Held.store(true);
          while (!Released.load())
            std::this_thread::yield();
          Lock.unlock(Attachment.context());
        }) {
    while (!Held.load())
      std::this_thread::yield();
  }
  ~Holder() { release(); }

  void release() {
    Released.store(true);
    if (Thread.joinable())
      Thread.join();
  }

private:
  std::atomic<bool> Held{false};
  std::atomic<bool> Released{false};
  std::thread Thread;
};

} // namespace

TEST_F(FatLockTest, LockIfLiveForNonPositiveTimeoutMakesOneAttempt) {
  // A free (or already owned) monitor is taken at once.
  EXPECT_EQ(Lock.lockIfLiveFor(Main, 0), FatLock::TimedResult::Acquired);
  EXPECT_EQ(Lock.lockIfLiveFor(Main, -1), FatLock::TimedResult::Acquired);
  EXPECT_EQ(Lock.holdCount(), 2u);
  Lock.unlock(Main);
  Lock.unlock(Main);

  // A held one is refused at once (a non-positive timeout never means
  // "wait forever"), and the attempt leaves nothing in the entry queue.
  Holder Other(Registry, Lock);
  for (int64_t Timeout : {int64_t{0}, int64_t{-1}}) {
    EXPECT_EQ(Lock.lockIfLiveFor(Main, Timeout),
              FatLock::TimedResult::TimedOut)
        << Timeout;
    EXPECT_EQ(Lock.entryQueueLength(), 0u);
  }
  Other.release();
  EXPECT_EQ(Lock.stats().Timeouts, 2u);
  EXPECT_FALSE(Lock.heldBy(Main));
}

TEST_F(FatLockTest, LockIfLiveForGivesUpAtItsDeadlineAndDequeues) {
  Holder Other(Registry, Lock);
  constexpr int64_t TimeoutNanos = 20'000'000;
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(Lock.lockIfLiveFor(Main, TimeoutNanos),
            FatLock::TimedResult::TimedOut);
  EXPECT_GE(std::chrono::steady_clock::now() - Start,
            std::chrono::nanoseconds(TimeoutNanos));
  EXPECT_EQ(Lock.entryQueueLength(), 0u);
  EXPECT_FALSE(Lock.heldBy(Main));
  Other.release();
  // Nothing was stranded: the next entrant finds the monitor free.
  EXPECT_TRUE(Lock.tryLock(Main));
  Lock.unlock(Main);
  FatLockStats Stats = Lock.stats();
  EXPECT_EQ(Stats.Timeouts, 1u);
  EXPECT_EQ(Stats.Acquisitions, 2u); // The holder's and the tryLock.
}

TEST_F(FatLockTest, LockIfLiveForAcquiresOnHandoffBeforeItsDeadline) {
  Holder Other(Registry, Lock);
  std::thread Releaser([&] {
    while (Lock.entryQueueLength() == 0)
      std::this_thread::yield();
    Other.release();
  });
  EXPECT_EQ(Lock.lockIfLiveFor(Main, /*TimeoutNanos=*/60'000'000'000),
            FatLock::TimedResult::Acquired);
  Releaser.join();
  EXPECT_TRUE(Lock.heldBy(Main));
  EXPECT_EQ(Lock.holdCount(), 1u);
  Lock.unlock(Main);
  FatLockStats Stats = Lock.stats();
  EXPECT_EQ(Stats.ContendedAcquisitions, 1u);
  EXPECT_EQ(Stats.Timeouts, 0u);
}

TEST_F(FatLockTest, ReleaseRetiresOnlyTheLastHoldOfAQuiescentMonitor) {
  Lock.lock(Main);
  Lock.lock(Main);
  std::thread Other([this] {
    ScopedThreadAttachment Attachment(Registry, "other");
    EXPECT_EQ(Lock.release(Attachment.context(), /*MayRetire=*/true),
              FatLock::ReleaseResult::NotOwner);
  });
  Other.join();
  EXPECT_EQ(Lock.release(Main, /*MayRetire=*/true),
            FatLock::ReleaseResult::Released); // One hold remains.
  EXPECT_FALSE(Lock.isRetired());
  EXPECT_EQ(Lock.release(Main, /*MayRetire=*/true),
            FatLock::ReleaseResult::RetiredNow);
  EXPECT_TRUE(Lock.isRetired());
  EXPECT_EQ(Lock.ownerIndex(), 0);
  // A retired monitor turns every later entrant back to the lock word.
  EXPECT_EQ(Lock.lockIfLiveFor(Main, 0), FatLock::TimedResult::Retired);
  EXPECT_EQ(Lock.tryLockStatus(Main), FatLock::TryResult::Retired);
  EXPECT_FALSE(Lock.retireIfQuiescent());
}

TEST_F(FatLockTest, PinnedMonitorIsNeverRetired) {
  Lock.pin();
  EXPECT_TRUE(Lock.isPinned());
  Lock.lock(Main);
  EXPECT_EQ(Lock.release(Main, /*MayRetire=*/true),
            FatLock::ReleaseResult::Released);
  EXPECT_FALSE(Lock.retireIfQuiescent());
  EXPECT_FALSE(Lock.isRetired());
  EXPECT_EQ(Lock.lockIfLiveFor(Main, 0), FatLock::TimedResult::Acquired);
  Lock.unlock(Main);
}

TEST_F(FatLockTest, RetireIfQuiescentRefusesOwnersAndWaiters) {
  Lock.lock(Main);
  EXPECT_FALSE(Lock.retireIfQuiescent()); // Owned.
  Lock.unlock(Main);

  // A waiter has released the monitor and left the entry queue empty,
  // yet it will come back for the monitor: still not quiescent.
  std::atomic<bool> Notified{false};
  std::thread Waiter([&] {
    ScopedThreadAttachment Attachment(Registry, "waiter");
    Lock.lock(Attachment.context());
    Notified.store(Lock.wait(Attachment.context()) ==
                   FatLock::WaitResult::Notified);
    Lock.unlock(Attachment.context());
  });
  while (Lock.waitSetSize() == 0)
    std::this_thread::yield();
  EXPECT_FALSE(Lock.retireIfQuiescent());
  Lock.lock(Main);
  EXPECT_TRUE(Lock.notify(Main));
  Lock.unlock(Main);
  Waiter.join();
  EXPECT_TRUE(Notified.load());

  EXPECT_TRUE(Lock.retireIfQuiescent());
  EXPECT_TRUE(Lock.isRetired());
  EXPECT_EQ(Lock.lockIfLiveFor(Main, 1'000'000),
            FatLock::TimedResult::Retired);
}

TEST_F(FatLockTest, LockMergingCountCreditsOrMergesHolds) {
  // Unowned: credits exactly Count holds.
  Lock.lockMergingCount(Main, 4);
  EXPECT_EQ(Lock.holdCount(), 4u);
  // Already owned by the caller: merges into the existing holds.
  Lock.lockMergingCount(Main, 2);
  EXPECT_EQ(Lock.holdCount(), 6u);
  for (int I = 0; I < 6; ++I) {
    EXPECT_TRUE(Lock.heldBy(Main)) << I;
    Lock.unlock(Main);
  }
  EXPECT_FALSE(Lock.heldBy(Main));

  // Owned by another thread: queues FIFO like lock(), then credits Count.
  Holder Other(Registry, Lock);
  std::thread Releaser([&] {
    while (Lock.entryQueueLength() == 0)
      std::this_thread::yield();
    Other.release();
  });
  Lock.lockMergingCount(Main, 3);
  Releaser.join();
  EXPECT_TRUE(Lock.heldBy(Main));
  EXPECT_EQ(Lock.holdCount(), 3u);
  for (int I = 0; I < 3; ++I)
    Lock.unlock(Main);
  EXPECT_FALSE(Lock.heldBy(Main));
  EXPECT_EQ(Lock.stats().ContendedAcquisitions, 1u);
}
