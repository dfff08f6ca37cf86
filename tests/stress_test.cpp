//===- tests/stress_test.cpp - Multi-threaded stress invariants -----------===//
//
// Heavier concurrency runs asserting the invariants the thin-lock design
// leans on: mutual exclusion under racing first-acquisitions, header-bit
// preservation across arbitrary interleavings, permanence of inflation,
// and correct lock-word states at quiescence.
//
//===----------------------------------------------------------------------===//

#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "support/SplitMix64.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace thinlocks;

namespace {
class StressTest : public ::testing::Test {
protected:
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks{Monitors, &Stats};
  const ClassInfo *Class = nullptr;

  void SetUp() override {
    Class = &TheHeap.classes().registerClass("X", 0);
  }
};
} // namespace

TEST_F(StressTest, RacingFirstAcquisitionsAdmitOneOwner) {
  // All threads start together and race the very first CAS on a fresh
  // object, repeatedly.
  constexpr int NumThreads = 4;
  constexpr int Rounds = 300;
  for (int Round = 0; Round < Rounds; ++Round) {
    Object *Obj = TheHeap.allocate(*Class);
    std::atomic<int> Inside{0};
    std::atomic<bool> Start{false};
    std::atomic<bool> Violation{false};
    std::vector<std::thread> Workers;
    for (int T = 0; T < NumThreads; ++T) {
      Workers.emplace_back([&] {
        ScopedThreadAttachment Attachment(Registry);
        while (!Start.load(std::memory_order_acquire))
          std::this_thread::yield();
        Locks.lock(Obj, Attachment.context());
        if (Inside.fetch_add(1) != 0)
          Violation.store(true);
        Inside.fetch_sub(1);
        Locks.unlock(Obj, Attachment.context());
      });
    }
    Start.store(true, std::memory_order_release);
    for (auto &W : Workers)
      W.join();
    EXPECT_FALSE(Violation.load()) << "round " << Round;
  }
}

TEST_F(StressTest, MixedDepthChaosPreservesCountersAndHeaders) {
  constexpr int NumThreads = 4;
  constexpr int NumObjects = 32;
  constexpr int OpsPerThread = 20000;

  std::vector<Object *> Objects;
  std::vector<uint32_t> Headers;
  std::vector<uint64_t> Counters(NumObjects, 0);
  for (int I = 0; I < NumObjects; ++I) {
    Objects.push_back(TheHeap.allocate(*Class));
    Headers.push_back(Objects.back()->headerBits());
  }

  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T) {
    Workers.emplace_back([&, T] {
      ScopedThreadAttachment Attachment(Registry);
      const ThreadContext &Ctx = Attachment.context();
      SplitMix64 Rng(1000 + T);
      for (int I = 0; I < OpsPerThread; ++I) {
        size_t Index = Rng.nextBounded(NumObjects);
        Object *Obj = Objects[Index];
        uint32_t Depth = 1 + static_cast<uint32_t>(Rng.nextBounded(4));
        for (uint32_t D = 0; D < Depth; ++D)
          Locks.lock(Obj, Ctx);
        ++Counters[Index]; // Protected by Obj's monitor.
        for (uint32_t D = 0; D < Depth; ++D)
          Locks.unlock(Obj, Ctx);
      }
    });
  }
  for (auto &W : Workers)
    W.join();

  uint64_t Total = 0;
  for (uint64_t C : Counters)
    Total += C;
  EXPECT_EQ(Total, static_cast<uint64_t>(NumThreads) * OpsPerThread);

  // Quiescent state: every lock is released; header bits intact; any
  // inflated lock has a fresh, unowned fat lock.
  ScopedThreadAttachment Main(Registry);
  for (int I = 0; I < NumObjects; ++I) {
    Object *Obj = Objects[I];
    EXPECT_EQ(lockword::headerBitsOf(Obj->lockWord().load()), Headers[I]);
    EXPECT_FALSE(Locks.holdsLock(Obj, Main.context()));
    if (Locks.isInflated(Obj)) {
      FatLock *Fat = Locks.monitorOf(Obj);
      ASSERT_NE(Fat, nullptr);
      EXPECT_EQ(Fat->ownerIndex(), 0);
      EXPECT_EQ(Fat->holdCount(), 0u);
      EXPECT_EQ(Fat->entryQueueLength(), 0u);
    } else {
      EXPECT_TRUE(lockword::isUnlocked(Obj->lockWord().load()));
    }
  }
  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_EQ(S.Acquisitions, S.Releases);
}

TEST_F(StressTest, InflationIsMonotonic) {
  // Sample lock words concurrently with heavy contention: once the shape
  // bit is observed set, it must never be observed clear again, and the
  // monitor index must never change.
  Object *Obj = TheHeap.allocate(*Class);
  std::atomic<bool> Stop{false};
  std::atomic<bool> Violation{false};

  std::thread Observer([&] {
    bool SeenFat = false;
    uint32_t FatWord = 0;
    while (!Stop.load()) {
      uint32_t Word = Obj->lockWord().load();
      std::this_thread::yield(); // Single-CPU host: let workers run.
      if (lockword::isFat(Word)) {
        if (!SeenFat) {
          SeenFat = true;
          FatWord = Word;
        } else if (Word != FatWord) {
          Violation.store(true);
        }
      } else if (SeenFat) {
        Violation.store(true); // Deflated: forbidden.
      }
    }
  });

  // One deterministic contention episode guarantees inflation: the
  // holder keeps the lock until the contender is provably spinning.
  {
    ScopedThreadAttachment Holder(Registry, "holder");
    Locks.lock(Obj, Holder.context());
    std::atomic<bool> ContenderStarted{false};
    std::thread Contender([&] {
      ScopedThreadAttachment Attachment(Registry, "contender");
      ContenderStarted.store(true);
      Locks.lock(Obj, Attachment.context());
      Locks.unlock(Obj, Attachment.context());
    });
    while (!ContenderStarted.load())
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Locks.unlock(Obj, Holder.context());
    Contender.join();
  }
  EXPECT_TRUE(Locks.isInflated(Obj));

  constexpr int NumThreads = 3;
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T) {
    Workers.emplace_back([&] {
      ScopedThreadAttachment Attachment(Registry);
      for (int I = 0; I < 4000; ++I) {
        Locks.lock(Obj, Attachment.context());
        Locks.unlock(Obj, Attachment.context());
      }
    });
  }
  for (auto &W : Workers)
    W.join();
  Stop.store(true);
  Observer.join();
  EXPECT_FALSE(Violation.load());
  EXPECT_TRUE(Locks.isInflated(Obj));
}

TEST_F(StressTest, DeepRecursionAcrossInflationBoundaryUnderObservation) {
  Object *Obj = TheHeap.allocate(*Class);
  std::atomic<bool> Stop{false};
  std::thread Observer([&] {
    // Reading lock words concurrently must always see a sane encoding.
    while (!Stop.load()) {
      uint32_t Word = Obj->lockWord().load();
      if (lockword::isThin(Word) && lockword::threadIndexOf(Word) == 0) {
        EXPECT_EQ(lockword::countOf(Word), 0u);
      }
      std::this_thread::yield(); // Single-CPU host: let the worker run.
    }
  });
  {
    ScopedThreadAttachment Attachment(Registry);
    for (int Round = 0; Round < 50; ++Round) {
      for (int I = 0; I < 300; ++I)
        Locks.lock(Obj, Attachment.context());
      for (int I = 0; I < 300; ++I)
        Locks.unlock(Obj, Attachment.context());
    }
  }
  Stop.store(true);
  Observer.join();
  EXPECT_TRUE(Locks.isInflated(Obj));
}

TEST_F(StressTest, ThinLocksNeverTouchTheMonitorTableUntilInflation) {
  // Uncontended single-owner usage must allocate zero monitors.
  ScopedThreadAttachment Attachment(Registry);
  for (int I = 0; I < 1000; ++I) {
    Object *Obj = TheHeap.allocate(*Class);
    for (int D = 0; D < 4; ++D)
      Locks.lock(Obj, Attachment.context());
    for (int D = 0; D < 4; ++D)
      Locks.unlock(Obj, Attachment.context());
  }
  EXPECT_EQ(Monitors.liveMonitorCount(), 0u);
}
