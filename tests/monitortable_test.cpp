//===- tests/monitortable_test.cpp - Monitor index table tests ------------===//

#include "fatlock/MonitorTable.h"
#include "core/LockWord.h"
#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "park/ParkingLot.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

using namespace thinlocks;

TEST(MonitorTable, IndexZeroIsNeverAllocated) {
  MonitorTable Table;
  EXPECT_EQ(Table.allocate(), 1u);
  EXPECT_EQ(Table.allocate(), 2u);
}

TEST(MonitorTable, GetReturnsDistinctMonitors) {
  MonitorTable Table;
  uint32_t A = Table.allocate();
  uint32_t B = Table.allocate();
  EXPECT_NE(Table.get(A), nullptr);
  EXPECT_NE(Table.get(B), nullptr);
  EXPECT_NE(Table.get(A), Table.get(B));
  EXPECT_EQ(Table.get(A), Table.get(A));
}

TEST(MonitorTable, LiveCountTracksAllocations) {
  MonitorTable Table;
  EXPECT_EQ(Table.liveMonitorCount(), 0u);
  for (int I = 0; I < 10; ++I)
    Table.allocate();
  EXPECT_EQ(Table.liveMonitorCount(), 10u);
}

TEST(MonitorTable, AllocationsSpanSegments) {
  MonitorTable Table;
  std::set<FatLock *> Monitors;
  // Cross at least two segment boundaries.
  uint32_t Count = MonitorTable::SegmentSize * 2 + 10;
  uint32_t LastIndex = 0;
  for (uint32_t I = 0; I < Count; ++I) {
    LastIndex = Table.allocate();
    ASSERT_NE(LastIndex, 0u);
    Monitors.insert(Table.get(LastIndex));
  }
  EXPECT_EQ(LastIndex, Count);
  EXPECT_EQ(Monitors.size(), Count);
}

TEST(MonitorTable, MonitorsAreUsableAcrossSegments) {
  MonitorTable Table;
  ThreadRegistry Registry;
  ScopedThreadAttachment Attachment(Registry);
  uint32_t Index = 0;
  for (uint32_t I = 0; I < MonitorTable::SegmentSize + 1; ++I)
    Index = Table.allocate();
  FatLock *Lock = Table.get(Index);
  Lock->lock(Attachment.context());
  EXPECT_TRUE(Lock->heldBy(Attachment.context()));
  Lock->unlock(Attachment.context());
}

TEST(MonitorTable, ConcurrentAllocationYieldsUniqueIndices) {
  MonitorTable Table;
  constexpr int NumThreads = 4;
  constexpr int PerThread = 1000;
  std::vector<std::vector<uint32_t>> Indices(NumThreads);
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T)
    Workers.emplace_back([&Table, &Indices, T] {
      for (int I = 0; I < PerThread; ++I)
        Indices[T].push_back(Table.allocate());
    });
  for (auto &W : Workers)
    W.join();
  std::set<uint32_t> All;
  for (auto &List : Indices)
    for (uint32_t Index : List) {
      EXPECT_NE(Index, 0u);
      EXPECT_TRUE(All.insert(Index).second);
    }
  EXPECT_EQ(All.size(), static_cast<size_t>(NumThreads) * PerThread);
  // Concurrent readers resolve every index.
  for (uint32_t Index : All)
    EXPECT_NE(Table.get(Index), nullptr);
}

TEST(MonitorTable, ConcurrentStressKeepsLiveCountExact) {
  MonitorTable Table;
  ThreadRegistry Registry;
  constexpr int NumThreads = 8;
  constexpr int PerThread = 2000;
  std::vector<std::vector<uint32_t>> Indices(NumThreads);
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T)
    Workers.emplace_back([&Table, &Registry, &Indices, T] {
      // Odd workers attach (exclusive stripes, per-index shards); even
      // workers stay unattached (hashed fallback stripes) so both shard
      // selection paths race each other.
      std::unique_ptr<ScopedThreadAttachment> Attach;
      if (T % 2)
        Attach = std::make_unique<ScopedThreadAttachment>(Registry, "alloc");
      for (int I = 0; I < PerThread; ++I)
        Indices[T].push_back(Table.allocate());
    });
  for (auto &W : Workers)
    W.join();
  std::set<uint32_t> All;
  for (auto &List : Indices)
    for (uint32_t Index : List) {
      ASSERT_NE(Index, 0u);
      EXPECT_TRUE(All.insert(Index).second);
      EXPECT_NE(Table.get(Index), nullptr);
    }
  EXPECT_EQ(All.size(), static_cast<size_t>(NumThreads) * PerThread);
  EXPECT_EQ(Table.liveMonitorCount(),
            static_cast<uint32_t>(NumThreads) * PerThread);
  EXPECT_EQ(Table.exhaustionEvents(), 0u);
}

TEST(MonitorTable, ConcurrentExhaustionIsExactWithPartialBlocks) {
  // Capacity chosen so the central cursor hands out one full block (64)
  // and one partial block (35): exhaustion must drain both remainders —
  // indices reserved to a shard but not yet handed out are never lost —
  // and then count exactly one event per failed allocate().
  constexpr uint32_t Capacity = 100;
  MonitorTable Table(Capacity);
  constexpr int NumThreads = 4;
  constexpr int PerThread = 100; // 400 attempts for 99 usable indices.
  std::vector<std::vector<uint32_t>> Indices(NumThreads);
  std::atomic<uint64_t> Failures{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T)
    Workers.emplace_back([&Table, &Indices, &Failures, T] {
      for (int I = 0; I < PerThread; ++I) {
        uint32_t Index = Table.allocate();
        if (Index)
          Indices[T].push_back(Index);
        else
          Failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto &W : Workers)
    W.join();
  std::set<uint32_t> All;
  for (auto &List : Indices)
    for (uint32_t Index : List)
      EXPECT_TRUE(All.insert(Index).second);
  // Every usable index was handed out exactly once before any failure
  // was reported.
  EXPECT_EQ(All.size(), static_cast<size_t>(Capacity) - 1);
  for (uint32_t I = 1; I < Capacity; ++I)
    EXPECT_EQ(All.count(I), 1u) << "index " << I << " leaked";
  EXPECT_EQ(Table.liveMonitorCount(), Capacity - 1);
  EXPECT_EQ(Table.exhaustionEvents(), Failures.load());
  EXPECT_EQ(Failures.load(),
            static_cast<uint64_t>(NumThreads) * PerThread - (Capacity - 1));
  // The emergency monitor is untouched by exhaustion accounting.
  EXPECT_NE(Table.get(Table.emergencyIndex()), nullptr);
  EXPECT_EQ(Table.emergencyIndex(), Capacity);
}

//===----------------------------------------------------------------------===//
// The deflation tail: every deflation returns its object to thin here
//===----------------------------------------------------------------------===//

namespace {

class MonitorTableDeflationTest : public ::testing::Test {
protected:
  MonitorTable Table;
  ThreadRegistry Registry;
  Heap TheHeap;
  ThreadContext Main;
  Object *Obj = nullptr;
  uint32_t Header = 0;

  void SetUp() override {
    Main = Registry.attach("main");
    Obj = TheHeap.allocate(TheHeap.classes().registerClass("Deflated", 0));
    Header = Obj->headerBits();
  }
  void TearDown() override { Registry.detach(Main); }

  /// Names monitor \p Index in Obj's lock word, as inflation publishes
  /// it, and \returns that fat word.
  uint32_t publishFat(uint32_t Index) {
    uint32_t Word = lockword::makeFat(Index, Header);
    Obj->lockWord().store(Word, std::memory_order_release);
    return Word;
  }
};

} // namespace

TEST_F(MonitorTableDeflationTest, FinishDeflationRestoresWakesAndCounts) {
  uint32_t Index = Table.allocate();
  FatLock *Fat = Table.get(Index);
  ASSERT_EQ(Fat->lock(Main), FatLock::TimedResult::Acquired);
  uint32_t FatWord = publishFat(Index);

  // A contender that met the retired monitor waits in the lot, keyed by
  // the object, for the word to leave the stale fat value.
  std::atomic<ParkingLot::ParkResult> Result{ParkingLot::ParkResult::Invalid};
  std::thread Contender([&] {
    ScopedThreadAttachment Attachment(Registry, "contender");
    Result.store(ParkingLot::global().parkUntil(
        Obj, *Attachment.context().parker(),
        [&] {
          return Obj->lockWord().load(std::memory_order_relaxed) == FatWord;
        },
        std::chrono::steady_clock::now() + std::chrono::seconds(10)));
  });
  while (ParkingLot::global().queuedOn(Obj) == 0)
    std::this_thread::yield();

  ASSERT_EQ(Fat->unlock(Main, /*MayRetire=*/true),
            FatLock::ReleaseResult::RetiredNow);
  Table.finishDeflation(Obj, FatWord);
  Contender.join();
  EXPECT_EQ(Result.load(), ParkingLot::ParkResult::Unparked);
  // Thin and unlocked, with the object's header bits intact.
  EXPECT_EQ(Obj->lockWord().load(), Header);
  EXPECT_EQ(Table.retirementEvents(), 1u);
}

TEST_F(MonitorTableDeflationTest, DeflateIfQuiescentRefusesThinPinnedOwned) {
  // A thin word names no monitor.
  EXPECT_FALSE(Table.deflateIfQuiescent(Obj));
  EXPECT_EQ(Obj->lockWord().load(), Header);

  // The emergency monitor never retires: many words may name it.
  uint32_t Shared = publishFat(Table.emergencyIndex());
  EXPECT_FALSE(Table.mayRetire(Shared));
  EXPECT_FALSE(Table.deflateIfQuiescent(Obj));
  EXPECT_EQ(Obj->lockWord().load(), Shared);
  EXPECT_FALSE(Table.get(Table.emergencyIndex())->isRetired());

  // An owned monitor is in use.
  uint32_t Index = Table.allocate();
  ASSERT_EQ(Table.get(Index)->lock(Main), FatLock::TimedResult::Acquired);
  uint32_t Owned = publishFat(Index);
  EXPECT_FALSE(Table.deflateIfQuiescent(Obj));
  EXPECT_EQ(Obj->lockWord().load(), Owned);
  EXPECT_FALSE(Table.get(Index)->isRetired());
  EXPECT_EQ(Table.retirementEvents(), 0u);

  // Released, the same monitor is quiescent and retires.
  Table.get(Index)->unlock(Main);
  EXPECT_TRUE(Table.deflateIfQuiescent(Obj));
  EXPECT_TRUE(Table.get(Index)->isRetired());
  EXPECT_EQ(Obj->lockWord().load(), Header);
  EXPECT_EQ(Table.retirementEvents(), 1u);
}

TEST_F(MonitorTableDeflationTest, EmergencyMonitorOutlivesItsLastHold) {
  // One allocatable index, already taken: the next inflation lands on
  // the shared emergency monitor.
  MonitorTable Small(/*Capacity=*/2);
  ASSERT_NE(Small.allocate(), 0u);
  ThinLockManager Locks(Small, nullptr, DeflationPolicy::WhenQuiescent);
  Locks.lock(Obj, Main);
  FatLock *Fat = Locks.inflate(Obj, Main);
  uint32_t Word = Obj->lockWord().load();
  ASSERT_TRUE(lockword::isFat(Word));
  ASSERT_EQ(lockword::monitorIndexOf(Word), Small.emergencyIndex());
  ASSERT_EQ(Fat, Small.get(Small.emergencyIndex()));

  // Releasing the last hold under WhenQuiescent keeps the word fat and
  // the monitor live...
  Locks.unlock(Obj, Main);
  EXPECT_EQ(Obj->lockWord().load(), Word);
  EXPECT_FALSE(Fat->isRetired());
  EXPECT_EQ(Fat->ownerIndex(), 0);
  // ...and the third-party scan leaves it too.
  EXPECT_FALSE(Small.deflateIfQuiescent(Obj));
  EXPECT_EQ(Obj->lockWord().load(), Word);
  EXPECT_FALSE(Fat->isRetired());
  EXPECT_EQ(Small.retirementEvents(), 0u);

  Locks.lock(Obj, Main);
  EXPECT_EQ(Locks.lockDepth(Obj, Main), 1u);
  Locks.unlock(Obj, Main);
}
