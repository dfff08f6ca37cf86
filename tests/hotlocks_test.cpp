//===- tests/hotlocks_test.cpp - IBM112 baseline behaviour ----------------===//
//
// Pins down the modelled IBM 1.1.2 hot-lock behaviours: frequency-driven
// promotion, the displaced header word, the hard cap of 32 hot locks, and
// the fallback to the thrash-prone cache beyond the cap (the paper's
// "Achilles heel", §3.3).  The cold path is JDK111's cache, so it counts
// lookups, hits, misses and pool growths the way MonitorCacheTest does.
//
//===----------------------------------------------------------------------===//

#include "baselines/HotLocks.h"
#include "heap/Heap.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <vector>

using namespace thinlocks;

namespace {
class HotLocksTest : public ::testing::Test {
protected:
  Heap TheHeap;
  ThreadRegistry Registry;
  ThreadContext Main;
  const ClassInfo *Class = nullptr;

  void SetUp() override {
    Main = Registry.attach("main");
    Class = &TheHeap.classes().registerClass("C", 0);
  }
  void TearDown() override { Registry.detach(Main); }

  void cycle(HotLocks &Locks, Object *Obj, int Times) {
    for (int I = 0; I < Times; ++I) {
      Locks.lock(Obj, Main);
      Locks.unlock(Obj, Main);
    }
  }
};
} // namespace

TEST_F(HotLocksTest, ColdObjectStaysInCache) {
  HotLocks Locks(32, /*PromotionThreshold=*/10, 64);
  Object *Obj = TheHeap.allocate(*Class);
  cycle(Locks, Obj, 2);
  EXPECT_FALSE(Locks.isHot(Obj));
  EXPECT_EQ(Locks.stats().Promotions, 0u);
  EXPECT_EQ(Locks.freeHotSlots(), 32u);
}

TEST_F(HotLocksTest, FrequentObjectGetsPromoted) {
  HotLocks Locks(32, /*PromotionThreshold=*/4, 64);
  Object *Obj = TheHeap.allocate(*Class);
  cycle(Locks, Obj, 5);
  EXPECT_TRUE(Locks.isHot(Obj));
  EXPECT_EQ(Locks.stats().Promotions, 1u);
  EXPECT_EQ(Locks.freeHotSlots(), 31u);
  // Still works as a lock after promotion.
  Locks.lock(Obj, Main);
  EXPECT_TRUE(Locks.holdsLock(Obj, Main));
  EXPECT_EQ(Locks.lockDepth(Obj, Main), 1u);
  Locks.unlock(Obj, Main);
}

TEST_F(HotLocksTest, PromotionDisplacesHeaderWord) {
  HotLocks Locks(32, 4, 64);
  Object *Obj = TheHeap.allocate(*Class);
  uint32_t Original = Obj->lockWord().load();
  cycle(Locks, Obj, 5);
  ASSERT_TRUE(Locks.isHot(Obj));
  // Bit 31 tags the word as a hot-lock id; the original word moved into
  // the hot-lock structure.
  EXPECT_NE(Obj->lockWord().load(), Original);
  EXPECT_NE(Obj->lockWord().load() & 0x80000000u, 0u);
  EXPECT_EQ(Locks.displacedHeader(Obj), Original);
}

TEST_F(HotLocksTest, HotPathSkipsTheCache) {
  HotLocks Locks(32, 4, 64);
  Object *Obj = TheHeap.allocate(*Class);
  cycle(Locks, Obj, 5);
  ASSERT_TRUE(Locks.isHot(Obj));
  uint64_t CacheOpsBefore = Locks.stats().CachePathOps;
  cycle(Locks, Obj, 100);
  EXPECT_EQ(Locks.stats().CachePathOps, CacheOpsBefore);
  EXPECT_GE(Locks.stats().HotPathOps, 200u);
}

TEST_F(HotLocksTest, OnlyNHotSlotsExist) {
  HotLocks Locks(/*NumHotLocks=*/4, /*PromotionThreshold=*/2, 64);
  auto Objects = std::vector<Object *>();
  for (int I = 0; I < 8; ++I)
    Objects.push_back(TheHeap.allocate(*Class));
  for (Object *Obj : Objects)
    cycle(Locks, Obj, 4);
  int Hot = 0;
  for (Object *Obj : Objects)
    Hot += Locks.isHot(Obj) ? 1 : 0;
  EXPECT_EQ(Hot, 4);
  EXPECT_EQ(Locks.freeHotSlots(), 0u);
  EXPECT_EQ(Locks.stats().Promotions, 4u);
  // The rest still lock correctly through the cache.
  for (Object *Obj : Objects) {
    Locks.lock(Obj, Main);
    EXPECT_TRUE(Locks.holdsLock(Obj, Main));
    Locks.unlock(Obj, Main);
  }
}

TEST_F(HotLocksTest, OverflowWorkingSetFallsBackToSweepingCache) {
  HotLocks Locks(/*NumHotLocks=*/4, /*PromotionThreshold=*/2,
                 /*PoolSize=*/8);
  std::vector<Object *> Objects;
  for (int I = 0; I < 64; ++I)
    Objects.push_back(TheHeap.allocate(*Class));
  // Make the first 4 objects hot, filling every slot.
  for (int I = 0; I < 4; ++I)
    cycle(Locks, Objects[I], 3);
  ASSERT_EQ(Locks.freeHotSlots(), 0u);
  // Now churn the full 64-object working set: 60 of them are stuck on
  // the 8-monitor cache, whose free list thrashes.
  for (int Round = 0; Round < 4; ++Round)
    for (Object *Obj : Objects)
      cycle(Locks, Obj, 1);
  HotLocksStats Stats = Locks.stats();
  EXPECT_EQ(Stats.Promotions, 4u);
  EXPECT_GT(Stats.Cache.Sweeps, 0u); // The >32 working set thrashes the cache.
  EXPECT_GT(Stats.CachePathOps, Stats.HotPathOps);
}

TEST_F(HotLocksTest, PromotionRequiresIdleMonitor) {
  HotLocks Locks(32, /*PromotionThreshold=*/2, 64);
  Object *Obj = TheHeap.allocate(*Class);
  // Drive the use count past the threshold while the monitor is HELD:
  // recursion keeps it owned, so promotion must not fire mid-recursion.
  Locks.lock(Obj, Main);
  for (int I = 0; I < 6; ++I) {
    Locks.lock(Obj, Main);
    Locks.unlock(Obj, Main);
  }
  EXPECT_FALSE(Locks.isHot(Obj));
  Locks.unlock(Obj, Main);
  // Once idle, the next acquisition promotes.
  cycle(Locks, Obj, 1);
  EXPECT_TRUE(Locks.isHot(Obj));
}

TEST_F(HotLocksTest, RecursionWorksOnHotLock) {
  HotLocks Locks(32, 2, 64);
  Object *Obj = TheHeap.allocate(*Class);
  cycle(Locks, Obj, 3);
  ASSERT_TRUE(Locks.isHot(Obj));
  for (uint32_t I = 1; I <= 10; ++I) {
    Locks.lock(Obj, Main);
    EXPECT_EQ(Locks.lockDepth(Obj, Main), I);
  }
  for (int I = 0; I < 10; ++I)
    Locks.unlock(Obj, Main);
  EXPECT_FALSE(Locks.holdsLock(Obj, Main));
}

TEST_F(HotLocksTest, WaitNotifyOnHotLock) {
  HotLocks Locks(32, 2, 64);
  Object *Obj = TheHeap.allocate(*Class);
  cycle(Locks, Obj, 3);
  ASSERT_TRUE(Locks.isHot(Obj));

  std::atomic<bool> Waiting{false};
  std::thread Waiter([&] {
    ScopedThreadAttachment Attachment(Registry);
    Locks.lock(Obj, Attachment.context());
    Waiting.store(true);
    EXPECT_EQ(Locks.wait(Obj, Attachment.context(), -1),
              WaitStatus::Notified);
    Locks.unlock(Obj, Attachment.context());
  });
  while (!Waiting.load())
    std::this_thread::yield();
  Locks.lock(Obj, Main);
  EXPECT_EQ(Locks.notify(Obj, Main), NotifyStatus::Ok);
  Locks.unlock(Obj, Main);
  Waiter.join();
}

TEST_F(HotLocksTest, HotnessIsPermanent) {
  HotLocks Locks(32, 2, 64);
  Object *Obj = TheHeap.allocate(*Class);
  cycle(Locks, Obj, 3);
  ASSERT_TRUE(Locks.isHot(Obj));
  // Long idle churn on other objects never demotes.
  for (int I = 0; I < 50; ++I) {
    Object *Other = TheHeap.allocate(*Class);
    Locks.lock(Other, Main);
    Locks.unlock(Other, Main);
  }
  EXPECT_TRUE(Locks.isHot(Obj));
}

TEST_F(HotLocksTest, ColdPathCountsEveryOperationAsALookup) {
  // As MonitorCacheTest.EveryOperationCountsALookup, on an object that
  // stays cold.
  HotLocks Locks(32, /*PromotionThreshold=*/100, 8);
  Object *Obj = TheHeap.allocate(*Class);
  Locks.lock(Obj, Main);
  Locks.unlock(Obj, Main);
  Locks.lock(Obj, Main);
  Locks.notify(Obj, Main);
  Locks.unlock(Obj, Main);
  ASSERT_FALSE(Locks.isHot(Obj));
  EXPECT_EQ(Locks.stats().Cache.Lookups, 5u);
}

TEST_F(HotLocksTest, PromotedObjectLeavesTheCache) {
  HotLocks Locks(32, /*PromotionThreshold=*/4, 64);
  Object *Obj = TheHeap.allocate(*Class);
  cycle(Locks, Obj, 5);
  ASSERT_TRUE(Locks.isHot(Obj));
  MonitorCacheStats Before = Locks.stats().Cache;
  cycle(Locks, Obj, 100);
  MonitorCacheStats After = Locks.stats().Cache;
  EXPECT_EQ(After.Lookups, Before.Lookups);
  EXPECT_EQ(After.Hits, Before.Hits);
  EXPECT_EQ(After.Misses, Before.Misses);
}

TEST_F(HotLocksTest, ColdPoolGrowsWhenAllMonitorsAreHeld) {
  // As MonitorCacheTest.PoolGrowsWhenAllMonitorsAreHeld.
  HotLocks Locks(32, /*PromotionThreshold=*/100, /*PoolSize=*/4);
  std::vector<Object *> Objects;
  for (int I = 0; I < 6; ++I)
    Objects.push_back(TheHeap.allocate(*Class));
  for (Object *Obj : Objects)
    Locks.lock(Obj, Main); // Hold all 6 simultaneously.
  EXPECT_EQ(Locks.stats().Cache.PoolGrowths, 2u);
  for (Object *Obj : Objects)
    Locks.unlock(Obj, Main);
}
