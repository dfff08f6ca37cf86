//===- tests/fatlock_test.cpp - Heavy monitor tests -----------------------===//

#include "fatlock/FatLock.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
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

  /// Notifies as \p Thread, which must own Lock; \returns how many
  /// waiters moved to the entry queue.
  uint32_t morph(const ThreadContext &Thread, bool All) {
    uint32_t Morphed = 0;
    EXPECT_EQ(Lock.notify(Thread, All, &Morphed), NotifyStatus::Ok);
    return Morphed;
  }
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
  EXPECT_EQ(Lock.lock(Main, 0), FatLock::TimedResult::Acquired);
  // A recursive one-attempt lock also succeeds.
  EXPECT_EQ(Lock.lock(Main, 0), FatLock::TimedResult::Acquired);
  EXPECT_EQ(Lock.holdCount(), 2u);
  Lock.unlock(Main);
  Lock.unlock(Main);
}

TEST_F(FatLockTest, TryLockFailsWhenHeldByOther) {
  Lock.lock(Main);
  std::thread Other([this] {
    ScopedThreadAttachment Attachment(Registry, "other");
    EXPECT_EQ(Lock.lock(Attachment.context(), 0),
              FatLock::TimedResult::TimedOut);
  });
  Other.join();
  Lock.unlock(Main);
}

TEST_F(FatLockTest, UnlockCheckedRejectsNonOwner) {
  Lock.lock(Main);
  std::thread Other([this] {
    ScopedThreadAttachment Attachment(Registry, "other");
    EXPECT_EQ(Lock.unlock(Attachment.context()),
              FatLock::ReleaseResult::NotOwner);
  });
  Other.join();
  EXPECT_EQ(Lock.unlock(Main), FatLock::ReleaseResult::Released);
  // Now unowned.
  EXPECT_EQ(Lock.unlock(Main), FatLock::ReleaseResult::NotOwner);
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
    EXPECT_EQ(Lock.wait(Attachment.context()), WaitStatus::Notified);
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
  EXPECT_EQ(morph(Main, /*All=*/false), 1u);
  Lock.unlock(Main);

  Waiter.join();
  EXPECT_TRUE(SawUnowned.load());
}

TEST_F(FatLockTest, TimedWaitTimesOut) {
  Lock.lock(Main);
  auto Start = std::chrono::steady_clock::now();
  WaitStatus Result = Lock.wait(Main, /*TimeoutNanos=*/20'000'000); // 20ms
  auto Elapsed = std::chrono::steady_clock::now() - Start;
  EXPECT_EQ(Result, WaitStatus::TimedOut);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(Elapsed)
                .count(),
            15);
  EXPECT_TRUE(Lock.heldBy(Main)); // Reacquired after timeout.
  EXPECT_EQ(Lock.waitSetSize(), 0u);
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
  EXPECT_EQ(Lock.wait(Main, /*TimeoutNanos=*/0), WaitStatus::TimedOut);
  EXPECT_TRUE(EntrantAcquired.load()); // FIFO: the entrant went first.
  EXPECT_TRUE(Lock.heldBy(Main));
  Lock.unlock(Main);
  Entrant.join();
}

TEST_F(FatLockTest, NotifyWithoutWaitersReturnsFalse) {
  Lock.lock(Main);
  EXPECT_EQ(morph(Main, /*All=*/false), 0u);
  EXPECT_EQ(morph(Main, /*All=*/true), 0u);
  Lock.unlock(Main);
}

TEST_F(FatLockTest, WaitAndNotifyByNonOwnerReturnNotOwnerAndChangeNothing) {
  // A waiter in the wait set, Main the owner, an entrant queued behind.
  std::thread Waiter([&] {
    ScopedThreadAttachment Attachment(Registry, "waiter");
    Lock.lock(Attachment.context());
    EXPECT_EQ(Lock.wait(Attachment.context()), WaitStatus::Notified);
    Lock.unlock(Attachment.context());
  });
  while (Lock.waitSetSize() == 0)
    std::this_thread::yield();
  Lock.lock(Main);
  std::thread Entrant([&] {
    ScopedThreadAttachment Attachment(Registry, "entrant");
    Lock.lock(Attachment.context());
    Lock.unlock(Attachment.context());
  });
  while (Lock.entryQueueLength() == 0)
    std::this_thread::yield();

  auto ExpectUnchanged = [&] {
    EXPECT_EQ(Lock.ownerIndex(), Main.index());
    EXPECT_EQ(Lock.holdCount(), 1u);
    EXPECT_EQ(Lock.waitSetSize(), 1u);
    EXPECT_EQ(Lock.entryQueueLength(), 1u);
  };
  ScopedThreadAttachment Other(Registry, "other");
  // An unattached context (index 0) is a non-owner too.
  for (const ThreadContext &NonOwner : {Other.context(), ThreadContext()}) {
    EXPECT_EQ(Lock.wait(NonOwner, /*TimeoutNanos=*/0), WaitStatus::NotOwner);
    EXPECT_EQ(Lock.wait(NonOwner), WaitStatus::NotOwner);
    ExpectUnchanged();
    uint32_t Morphed = 7;
    EXPECT_EQ(Lock.notify(NonOwner, /*All=*/false, &Morphed),
              NotifyStatus::NotOwner);
    EXPECT_EQ(Lock.notify(NonOwner, /*All=*/true, &Morphed),
              NotifyStatus::NotOwner);
    EXPECT_EQ(Morphed, 7u);
    ExpectUnchanged();
  }

  EXPECT_EQ(morph(Main, /*All=*/true), 1u);
  Lock.unlock(Main);
  Waiter.join();
  Entrant.join();
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
    EXPECT_EQ(morph(Main, /*All=*/false), 1u);
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
      EXPECT_EQ(Lock.wait(Attachment.context()), WaitStatus::Notified);
      Woken.fetch_add(1);
      Lock.unlock(Attachment.context());
    });
  }
  while (Lock.waitSetSize() != NumWaiters)
    std::this_thread::yield();
  Lock.lock(Main);
  EXPECT_EQ(morph(Main, /*All=*/true), static_cast<uint32_t>(NumWaiters));
  Lock.unlock(Main);
  for (auto &W : Waiters)
    W.join();
  EXPECT_EQ(Woken.load(), NumWaiters);
  EXPECT_EQ(Lock.waitSetSize(), 0u);
}

TEST_F(FatLockTest, LockWithCountTransfersNesting) {
  Lock.lock(Main, std::nullopt, 257);
  EXPECT_TRUE(Lock.heldBy(Main));
  EXPECT_EQ(Lock.holdCount(), 257u);
  for (int I = 0; I < 257; ++I)
    Lock.unlock(Main);
  EXPECT_FALSE(Lock.heldBy(Main));
}

TEST_F(FatLockTest, ContendedEntrantQueuesThenTakesTheHandoff) {
  Lock.lock(Main);
  std::atomic<uint16_t> Acquired{0};
  std::thread Other([&] {
    ScopedThreadAttachment Attachment(Registry);
    Lock.lock(Attachment.context());
    Acquired.store(Lock.ownerIndex());
    Lock.unlock(Attachment.context());
  });
  while (Lock.entryQueueLength() == 0)
    std::this_thread::yield();
  EXPECT_EQ(Lock.entryQueueLength(), 1u);
  EXPECT_EQ(Lock.ownerIndex(), Main.index());
  Lock.unlock(Main);
  Other.join();
  EXPECT_NE(Acquired.load(), 0);
  EXPECT_NE(Acquired.load(), Main.index());
  EXPECT_EQ(Lock.entryQueueLength(), 0u);
  EXPECT_EQ(Lock.ownerIndex(), 0);
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
  EXPECT_EQ(Lock.lock(Main, 0), FatLock::TimedResult::Acquired);
  EXPECT_EQ(Lock.lock(Main, -1), FatLock::TimedResult::Acquired);
  EXPECT_EQ(Lock.holdCount(), 2u);
  Lock.unlock(Main);
  Lock.unlock(Main);

  // A held one is refused at once (a non-positive timeout never means
  // "wait forever"), and the attempt leaves nothing in the entry queue.
  Holder Other(Registry, Lock);
  for (int64_t Timeout : {int64_t{0}, int64_t{-1}}) {
    EXPECT_EQ(Lock.lock(Main, Timeout), FatLock::TimedResult::TimedOut)
        << Timeout;
    EXPECT_EQ(Lock.entryQueueLength(), 0u);
  }
  Other.release();
  EXPECT_FALSE(Lock.heldBy(Main));
}

TEST_F(FatLockTest, LockIfLiveForGivesUpAtItsDeadlineAndDequeues) {
  Holder Other(Registry, Lock);
  constexpr int64_t TimeoutNanos = 20'000'000;
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(Lock.lock(Main, TimeoutNanos), FatLock::TimedResult::TimedOut);
  EXPECT_GE(std::chrono::steady_clock::now() - Start,
            std::chrono::nanoseconds(TimeoutNanos));
  EXPECT_EQ(Lock.entryQueueLength(), 0u);
  EXPECT_FALSE(Lock.heldBy(Main));
  Other.release();
  // Nothing was stranded: the next entrant finds the monitor free.
  EXPECT_EQ(Lock.lock(Main, 0), FatLock::TimedResult::Acquired);
  Lock.unlock(Main);
}

TEST_F(FatLockTest, LockIfLiveForAcquiresOnHandoffBeforeItsDeadline) {
  Holder Other(Registry, Lock);
  std::thread Releaser([&] {
    while (Lock.entryQueueLength() == 0)
      std::this_thread::yield();
    Other.release();
  });
  EXPECT_EQ(Lock.lock(Main, /*TimeoutNanos=*/60'000'000'000),
            FatLock::TimedResult::Acquired);
  Releaser.join();
  EXPECT_TRUE(Lock.heldBy(Main));
  EXPECT_EQ(Lock.holdCount(), 1u);
  Lock.unlock(Main);
}

TEST_F(FatLockTest, ReleaseRetiresOnlyTheLastHoldOfAQuiescentMonitor) {
  Lock.lock(Main);
  Lock.lock(Main);
  std::thread Other([this] {
    ScopedThreadAttachment Attachment(Registry, "other");
    EXPECT_EQ(Lock.unlock(Attachment.context(), /*MayRetire=*/true),
              FatLock::ReleaseResult::NotOwner);
  });
  Other.join();
  EXPECT_EQ(Lock.unlock(Main, /*MayRetire=*/true),
            FatLock::ReleaseResult::Released); // One hold remains.
  EXPECT_FALSE(Lock.isRetired());
  EXPECT_EQ(Lock.unlock(Main, /*MayRetire=*/true),
            FatLock::ReleaseResult::RetiredNow);
  EXPECT_TRUE(Lock.isRetired());
  EXPECT_EQ(Lock.ownerIndex(), 0);
  // A retired monitor turns every later entrant back to the lock word.
  EXPECT_EQ(Lock.lock(Main, 0), FatLock::TimedResult::Retired);
  EXPECT_EQ(Lock.lock(Main, -1), FatLock::TimedResult::Retired);
  EXPECT_FALSE(Lock.retireIfQuiescent());
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
    Notified.store(Lock.wait(Attachment.context()) == WaitStatus::Notified);
    Lock.unlock(Attachment.context());
  });
  while (Lock.waitSetSize() == 0)
    std::this_thread::yield();
  EXPECT_FALSE(Lock.retireIfQuiescent());
  Lock.lock(Main);
  EXPECT_EQ(morph(Main, /*All=*/false), 1u);
  Lock.unlock(Main);
  Waiter.join();
  EXPECT_TRUE(Notified.load());

  EXPECT_TRUE(Lock.retireIfQuiescent());
  EXPECT_TRUE(Lock.isRetired());
  EXPECT_EQ(Lock.lock(Main, 1'000'000), FatLock::TimedResult::Retired);
}

TEST_F(FatLockTest, LockMergingCountCreditsOrMergesHolds) {
  // Unowned: credits exactly Count holds.
  Lock.lock(Main, std::nullopt, 4);
  EXPECT_EQ(Lock.holdCount(), 4u);
  // Already owned by the caller: merges into the existing holds.
  Lock.lock(Main, std::nullopt, 2);
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
  Lock.lock(Main, std::nullopt, 3);
  Releaser.join();
  EXPECT_TRUE(Lock.heldBy(Main));
  EXPECT_EQ(Lock.holdCount(), 3u);
  for (int I = 0; I < 3; ++I)
    Lock.unlock(Main);
  EXPECT_FALSE(Lock.heldBy(Main));
}

TEST_F(FatLockTest, RetiredMonitorAnswersRetiredToEveryFormOfLock) {
  Lock.lock(Main);
  ASSERT_EQ(Lock.unlock(Main, /*MayRetire=*/true),
            FatLock::ReleaseResult::RetiredNow);
  EXPECT_EQ(Lock.lock(Main), FatLock::TimedResult::Retired);
  EXPECT_EQ(Lock.lock(Main, /*TimeoutNanos=*/1'000'000),
            FatLock::TimedResult::Retired);
  EXPECT_EQ(Lock.lock(Main, /*TimeoutNanos=*/0),
            FatLock::TimedResult::Retired);
  EXPECT_EQ(Lock.lock(Main, std::nullopt, /*Holds=*/3),
            FatLock::TimedResult::Retired);
  // None of them took the monitor.
  EXPECT_EQ(Lock.ownerIndex(), 0);
  EXPECT_EQ(Lock.holdCount(), 0u);
  EXPECT_EQ(Lock.unlock(Main), FatLock::ReleaseResult::NotOwner);
}

TEST_F(FatLockTest, TickingWaiterKeepsItsPlaceInTheEntryQueue) {
  // A waiter that ticks (ThinLockImpl's watchdog) stays queued through
  // every tick: B queues before C, waits through at least two ticks
  // after C has queued, and still enters first.  Each tick reads the
  // monitor, which only works with the monitor's mutex released.
  constexpr int64_t TickNanos = 5'000'000;
  Lock.lock(Main);
  std::atomic<int> Ticks{0};
  std::atomic<uint16_t> OwnerSeenByTick{0};
  std::mutex OrderMutex;
  std::vector<char> Order;
  auto enter = [&](char Name, const ThreadContext &Thread) {
    {
      std::lock_guard<std::mutex> Guard(OrderMutex);
      Order.push_back(Name);
    }
    Lock.unlock(Thread);
  };
  std::thread B([&] {
    ScopedThreadAttachment Attachment(Registry, "b");
    EXPECT_EQ(Lock.lockTicking(Attachment.context(), TickNanos,
                               [&] {
                                 OwnerSeenByTick.store(Lock.ownerIndex());
                                 Ticks.fetch_add(1);
                               }),
              FatLock::TimedResult::Acquired);
    enter('B', Attachment.context());
  });
  while (Lock.entryQueueLength() != 1)
    std::this_thread::yield();
  std::thread C([&] {
    ScopedThreadAttachment Attachment(Registry, "c");
    Lock.lock(Attachment.context());
    enter('C', Attachment.context());
  });
  while (Lock.entryQueueLength() != 2)
    std::this_thread::yield();
  const int TicksWithBothQueued = Ticks.load();
  while (Ticks.load() < TicksWithBothQueued + 2)
    std::this_thread::yield();
  EXPECT_EQ(Lock.entryQueueLength(), 2u);
  EXPECT_EQ(OwnerSeenByTick.load(), Main.index());
  Lock.unlock(Main);
  B.join();
  C.join();
  EXPECT_EQ(Order, (std::vector<char>{'B', 'C'}));
  EXPECT_EQ(Lock.entryQueueLength(), 0u);
}

TEST_F(FatLockTest, ZeroTimeoutBehindAQueueIsRefusedWithoutQueueing) {
  std::atomic<bool> WaiterAcquired{false};
  {
    Holder Other(Registry, Lock);
    std::thread Waiter([&] {
      ScopedThreadAttachment Attachment(Registry, "waiter");
      Lock.lock(Attachment.context());
      WaiterAcquired.store(true);
      Lock.unlock(Attachment.context());
    });
    while (Lock.entryQueueLength() == 0)
      std::this_thread::yield();

    EXPECT_EQ(Lock.lock(Main, /*TimeoutNanos=*/0),
              FatLock::TimedResult::TimedOut);
    EXPECT_EQ(Lock.entryQueueLength(), 1u); // The waiter's only.

    // The holder's release grants the queued waiter, not the refused
    // caller.
    Other.release();
    Waiter.join();
  }
  EXPECT_TRUE(WaiterAcquired.load());
  EXPECT_FALSE(Lock.heldBy(Main));
  EXPECT_EQ(Lock.lock(Main, /*TimeoutNanos=*/0),
            FatLock::TimedResult::Acquired);
  Lock.unlock(Main);
}
