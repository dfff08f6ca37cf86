//===- tests/thinlock_test.cpp - Thin lock protocol tests -----------------===//
//
// Exercises every transition of paper §2.3: fast-path locking, store-only
// unlocking, nested locking through count overflow, contention inflation,
// wait/notify inflation, and the permanence of inflation.  The core suite
// is typed over all four §3.5 policy variants (UP / MP / Dynamic /
// UnlkC&S) — the variants differ only in fences and unlock style, so the
// protocol semantics must be identical.
//
//===----------------------------------------------------------------------===//

#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace thinlocks;

namespace {

template <typename Policy> class ThinLockTypedTest : public ::testing::Test {
protected:
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockImpl<Policy> Locks{Monitors, &Stats};
  ThreadContext Main;
  const ClassInfo *Class = nullptr;

  void SetUp() override {
    Main = Registry.attach("main");
    Class = &TheHeap.classes().registerClass("T", 1);
  }
  void TearDown() override { Registry.detach(Main); }

  Object *newObject() { return TheHeap.allocate(*Class); }
};

using Policies = ::testing::Types<UniprocessorPolicy, MultiprocessorPolicy,
                                  DynamicPolicy, CasUnlockPolicy>;
TYPED_TEST_SUITE(ThinLockTypedTest, Policies);

} // namespace

TYPED_TEST(ThinLockTypedTest, TryLockForWithoutContentionStaysThin) {
  // An uncontended bounded acquire is tryLock's CAS (and its nested
  // store): the contended loop never runs and nothing inflates the word.
  Object *Obj = this->newObject();
  for (int I = 0; I < 2; ++I)
    ASSERT_EQ(this->Locks.tryLockFor(Obj, this->Main, 1'000'000),
              TimedLockStatus::Acquired);
  uint32_t Held = Obj->lockWord().load();
  EXPECT_TRUE(lockword::isThin(Held));
  EXPECT_EQ(lockword::countOf(Held), 1u);
  this->Locks.unlock(Obj, this->Main);
  this->Locks.unlock(Obj, this->Main);
  EXPECT_FALSE(this->Locks.isInflated(Obj));
  EXPECT_EQ(this->Stats.snapshot().inflations(), 0u);
}

TYPED_TEST(ThinLockTypedTest, LockSetsThinWordUnlockClearsIt) {
  Object *Obj = this->newObject();
  uint32_t Before = Obj->lockWord().load();
  this->Locks.lock(Obj, this->Main);
  uint32_t Held = Obj->lockWord().load();
  EXPECT_TRUE(lockword::isThin(Held));
  EXPECT_EQ(lockword::threadIndexOf(Held), this->Main.index());
  EXPECT_EQ(lockword::countOf(Held), 0u); // count = holds - 1
  EXPECT_TRUE(this->Locks.holdsLock(Obj, this->Main));
  this->Locks.unlock(Obj, this->Main);
  EXPECT_EQ(Obj->lockWord().load(), Before);
  EXPECT_FALSE(this->Locks.holdsLock(Obj, this->Main));
}

TYPED_TEST(ThinLockTypedTest, HeaderBitsPreservedAcrossLocking) {
  Object *Obj = this->newObject();
  uint32_t Header = Obj->headerBits();
  this->Locks.lock(Obj, this->Main);
  EXPECT_EQ(lockword::headerBitsOf(Obj->lockWord().load()), Header);
  this->Locks.lock(Obj, this->Main);
  EXPECT_EQ(lockword::headerBitsOf(Obj->lockWord().load()), Header);
  this->Locks.unlock(Obj, this->Main);
  this->Locks.unlock(Obj, this->Main);
  EXPECT_EQ(lockword::headerBitsOf(Obj->lockWord().load()), Header);
}

TYPED_TEST(ThinLockTypedTest, NestedLockingBumpsCount) {
  Object *Obj = this->newObject();
  for (uint32_t Depth = 1; Depth <= 16; ++Depth) {
    this->Locks.lock(Obj, this->Main);
    EXPECT_EQ(this->Locks.lockDepth(Obj, this->Main), Depth);
    EXPECT_EQ(lockword::countOf(Obj->lockWord().load()), Depth - 1);
  }
  for (uint32_t Depth = 16; Depth >= 1; --Depth) {
    EXPECT_EQ(this->Locks.lockDepth(Obj, this->Main), Depth);
    this->Locks.unlock(Obj, this->Main);
  }
  EXPECT_EQ(this->Locks.lockDepth(Obj, this->Main), 0u);
  EXPECT_FALSE(this->Locks.isInflated(Obj));
}

TYPED_TEST(ThinLockTypedTest, StaysThinThrough256Holds) {
  Object *Obj = this->newObject();
  for (int I = 0; I < 256; ++I)
    this->Locks.lock(Obj, this->Main);
  EXPECT_FALSE(this->Locks.isInflated(Obj));
  EXPECT_EQ(lockword::countOf(Obj->lockWord().load()), 255u);
  EXPECT_EQ(this->Locks.lockDepth(Obj, this->Main), 256u);
  for (int I = 0; I < 256; ++I)
    this->Locks.unlock(Obj, this->Main);
  EXPECT_FALSE(this->Locks.holdsLock(Obj, this->Main));
}

TYPED_TEST(ThinLockTypedTest, The257thHoldInflates) {
  // Paper §2.3: "excessive as 257".
  Object *Obj = this->newObject();
  for (int I = 0; I < 257; ++I)
    this->Locks.lock(Obj, this->Main);
  EXPECT_TRUE(this->Locks.isInflated(Obj));
  EXPECT_EQ(this->Locks.lockDepth(Obj, this->Main), 257u);
  FatLock *Fat = this->Locks.monitorOf(Obj);
  ASSERT_NE(Fat, nullptr);
  EXPECT_EQ(Fat->holdCount(), 257u);
  for (int I = 0; I < 257; ++I)
    this->Locks.unlock(Obj, this->Main);
  EXPECT_FALSE(this->Locks.holdsLock(Obj, this->Main));
  // Once inflated, stays inflated.
  EXPECT_TRUE(this->Locks.isInflated(Obj));
}

TYPED_TEST(ThinLockTypedTest, TryLockNests256ThenInflatesOn257th) {
  // Regression: tryLock used to refuse the owner's 257th recursive
  // acquisition (the count field saturated at 255 = 256 holds) instead
  // of inflating the way lock() does at the same boundary — recursion
  // depth 257 made tryLock spuriously fail for its own owner.
  Object *Obj = this->newObject();
  for (int I = 0; I < 256; ++I)
    ASSERT_TRUE(this->Locks.tryLock(Obj, this->Main));
  EXPECT_FALSE(this->Locks.isInflated(Obj));
  EXPECT_EQ(lockword::countOf(Obj->lockWord().load()), 255u);
  uint64_t OverflowBefore = this->Stats.snapshot().OverflowInflations;
  EXPECT_TRUE(this->Locks.tryLock(Obj, this->Main));
  EXPECT_TRUE(this->Locks.isInflated(Obj));
  EXPECT_EQ(this->Locks.lockDepth(Obj, this->Main), 257u);
  FatLock *Fat = this->Locks.monitorOf(Obj);
  ASSERT_NE(Fat, nullptr);
  EXPECT_EQ(Fat->holdCount(), 257u);
  EXPECT_EQ(this->Stats.snapshot().OverflowInflations, OverflowBefore + 1);
  for (int I = 0; I < 257; ++I)
    this->Locks.unlock(Obj, this->Main);
  EXPECT_FALSE(this->Locks.holdsLock(Obj, this->Main));
}

TYPED_TEST(ThinLockTypedTest, InflationPreservesHeaderBits) {
  Object *Obj = this->newObject();
  uint32_t Header = Obj->headerBits();
  for (int I = 0; I < 257; ++I)
    this->Locks.lock(Obj, this->Main);
  EXPECT_TRUE(this->Locks.isInflated(Obj));
  EXPECT_EQ(lockword::headerBitsOf(Obj->lockWord().load()), Header);
  for (int I = 0; I < 257; ++I)
    this->Locks.unlock(Obj, this->Main);
}

TYPED_TEST(ThinLockTypedTest, ContentionInflatesAndExcludes) {
  Object *Obj = this->newObject();
  this->Locks.lock(Obj, this->Main);

  std::atomic<bool> OtherAcquired{false};
  std::atomic<bool> OtherAttempting{false};
  std::thread Other([&] {
    ScopedThreadAttachment Attachment(this->Registry, "other");
    OtherAttempting.store(true);
    this->Locks.lock(Obj, Attachment.context());
    OtherAcquired.store(true);
    EXPECT_TRUE(this->Locks.holdsLock(Obj, Attachment.context()));
    this->Locks.unlock(Obj, Attachment.context());
  });

  // The contender spins; it cannot acquire while we hold the lock.
  while (!OtherAttempting.load())
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(OtherAcquired.load());
  EXPECT_TRUE(this->Locks.holdsLock(Obj, this->Main));

  this->Locks.unlock(Obj, this->Main);
  Other.join();
  EXPECT_TRUE(OtherAcquired.load());
  // §2.3.4: the contender inflated the lock after acquiring it.
  EXPECT_TRUE(this->Locks.isInflated(Obj));
  EXPECT_FALSE(this->Locks.holdsLock(Obj, this->Main));
}

TYPED_TEST(ThinLockTypedTest, FatPathLockingStillRecursive) {
  Object *Obj = this->newObject();
  for (int I = 0; I < 257; ++I) // Force inflation.
    this->Locks.lock(Obj, this->Main);
  for (int I = 0; I < 257; ++I)
    this->Locks.unlock(Obj, this->Main);

  // Locking through the fat word.
  this->Locks.lock(Obj, this->Main);
  this->Locks.lock(Obj, this->Main);
  EXPECT_EQ(this->Locks.lockDepth(Obj, this->Main), 2u);
  this->Locks.unlock(Obj, this->Main);
  this->Locks.unlock(Obj, this->Main);
  EXPECT_FALSE(this->Locks.holdsLock(Obj, this->Main));
}

TYPED_TEST(ThinLockTypedTest, UnlockCheckedRejectsNonOwnerAndUnlocked) {
  Object *Obj = this->newObject();
  EXPECT_FALSE(this->Locks.unlockChecked(Obj, this->Main));
  this->Locks.lock(Obj, this->Main);
  std::thread Other([&] {
    ScopedThreadAttachment Attachment(this->Registry);
    EXPECT_FALSE(this->Locks.unlockChecked(Obj, Attachment.context()));
  });
  Other.join();
  EXPECT_TRUE(this->Locks.unlockChecked(Obj, this->Main));
}

TYPED_TEST(ThinLockTypedTest, TryLockBehaviour) {
  Object *Obj = this->newObject();
  EXPECT_TRUE(this->Locks.tryLock(Obj, this->Main));
  EXPECT_TRUE(this->Locks.tryLock(Obj, this->Main)); // Nested.
  EXPECT_EQ(this->Locks.lockDepth(Obj, this->Main), 2u);

  std::thread Other([&] {
    ScopedThreadAttachment Attachment(this->Registry);
    EXPECT_FALSE(this->Locks.tryLock(Obj, Attachment.context()));
  });
  Other.join();
  // A failed tryLock must NOT inflate (no spinning happened).
  EXPECT_FALSE(this->Locks.isInflated(Obj));
  this->Locks.unlock(Obj, this->Main);
  this->Locks.unlock(Obj, this->Main);
}

TYPED_TEST(ThinLockTypedTest, WaitInflatesAndNotifyWakes) {
  Object *Obj = this->newObject();
  std::atomic<bool> Waiting{false};

  std::thread Waiter([&] {
    ScopedThreadAttachment Attachment(this->Registry, "waiter");
    this->Locks.lock(Obj, Attachment.context());
    Waiting.store(true);
    WaitStatus Status = this->Locks.wait(Obj, Attachment.context(), -1);
    EXPECT_EQ(Status, WaitStatus::Notified);
    EXPECT_TRUE(this->Locks.holdsLock(Obj, Attachment.context()));
    this->Locks.unlock(Obj, Attachment.context());
  });

  while (!Waiting.load())
    std::this_thread::yield();
  // Wait forces inflation (only fat locks have wait queues).
  while (!this->Locks.isInflated(Obj))
    std::this_thread::yield();
  FatLock *Fat = this->Locks.monitorOf(Obj);
  ASSERT_NE(Fat, nullptr);
  while (Fat->waitSetSize() == 0)
    std::this_thread::yield();

  this->Locks.lock(Obj, this->Main);
  EXPECT_EQ(this->Locks.notify(Obj, this->Main), NotifyStatus::Ok);
  this->Locks.unlock(Obj, this->Main);
  Waiter.join();
}

TYPED_TEST(ThinLockTypedTest, WaitRestoresNestingDepth) {
  Object *Obj = this->newObject();
  std::atomic<bool> Waiting{false};
  std::thread Waiter([&] {
    ScopedThreadAttachment Attachment(this->Registry);
    this->Locks.lock(Obj, Attachment.context());
    this->Locks.lock(Obj, Attachment.context());
    this->Locks.lock(Obj, Attachment.context());
    Waiting.store(true);
    EXPECT_EQ(this->Locks.wait(Obj, Attachment.context(), -1),
              WaitStatus::Notified);
    EXPECT_EQ(this->Locks.lockDepth(Obj, Attachment.context()), 3u);
    for (int I = 0; I < 3; ++I)
      this->Locks.unlock(Obj, Attachment.context());
  });
  while (!Waiting.load() || !this->Locks.isInflated(Obj))
    std::this_thread::yield();
  while (this->Locks.monitorOf(Obj)->waitSetSize() == 0)
    std::this_thread::yield();
  this->Locks.lock(Obj, this->Main);
  this->Locks.notifyAll(Obj, this->Main);
  this->Locks.unlock(Obj, this->Main);
  Waiter.join();
}

TYPED_TEST(ThinLockTypedTest, TimedWaitTimesOut) {
  Object *Obj = this->newObject();
  this->Locks.lock(Obj, this->Main);
  WaitStatus Status =
      this->Locks.wait(Obj, this->Main, /*TimeoutNanos=*/5'000'000);
  EXPECT_EQ(Status, WaitStatus::TimedOut);
  EXPECT_TRUE(this->Locks.holdsLock(Obj, this->Main));
  EXPECT_TRUE(this->Locks.isInflated(Obj));
  this->Locks.unlock(Obj, this->Main);
}

TYPED_TEST(ThinLockTypedTest, WaitNotifyRequireOwnership) {
  Object *Obj = this->newObject();
  EXPECT_EQ(this->Locks.wait(Obj, this->Main, 0), WaitStatus::NotOwner);
  EXPECT_EQ(this->Locks.notify(Obj, this->Main), NotifyStatus::NotOwner);
  EXPECT_EQ(this->Locks.notifyAll(Obj, this->Main),
            NotifyStatus::NotOwner);
  // Not even inflated by the failed attempts.
  EXPECT_FALSE(this->Locks.isInflated(Obj));
}

TYPED_TEST(ThinLockTypedTest, NotifyOnOwnedThinLockIsLegalNoOp) {
  Object *Obj = this->newObject();
  this->Locks.lock(Obj, this->Main);
  EXPECT_EQ(this->Locks.notify(Obj, this->Main), NotifyStatus::Ok);
  EXPECT_EQ(this->Locks.notifyAll(Obj, this->Main), NotifyStatus::Ok);
  EXPECT_FALSE(this->Locks.isInflated(Obj)); // Still thin: no waiters possible.
  this->Locks.unlock(Obj, this->Main);
}

TYPED_TEST(ThinLockTypedTest, ManyObjectsIndependentLocks) {
  std::vector<Object *> Objects;
  for (int I = 0; I < 200; ++I)
    Objects.push_back(this->newObject());
  for (Object *Obj : Objects)
    this->Locks.lock(Obj, this->Main);
  for (Object *Obj : Objects) {
    EXPECT_TRUE(this->Locks.holdsLock(Obj, this->Main));
    EXPECT_FALSE(this->Locks.isInflated(Obj));
  }
  for (Object *Obj : Objects)
    this->Locks.unlock(Obj, this->Main);
  for (Object *Obj : Objects)
    EXPECT_FALSE(this->Locks.holdsLock(Obj, this->Main));
}

//===----------------------------------------------------------------------===//
// Stats (Dynamic policy only; stats behaviour is policy-independent).
//===----------------------------------------------------------------------===//

namespace {
class ThinLockStatsTest : public ::testing::Test {
protected:
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks{Monitors, &Stats};
  ThreadContext Main;
  const ClassInfo *Class = nullptr;

  void SetUp() override {
    Main = Registry.attach("main");
    Class = &TheHeap.classes().registerClass("S", 0);
  }
  void TearDown() override { Registry.detach(Main); }
};
} // namespace

TEST_F(ThinLockStatsTest, CountsFastPathAndDepthBuckets) {
  Object *A = TheHeap.allocate(*Class);
  Object *B = TheHeap.allocate(*Class);
  Locks.lock(A, Main);   // depth 1 (fast path)
  Locks.lock(A, Main);   // depth 2
  Locks.lock(A, Main);   // depth 3
  Locks.lock(A, Main);   // depth 4
  Locks.lock(A, Main);   // depth 5 -> bucket "fourth+"
  Locks.lock(B, Main);   // depth 1 (fast path)
  for (int I = 0; I < 5; ++I)
    Locks.unlock(A, Main);
  Locks.unlock(B, Main);

  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_EQ(S.Acquisitions, 6u);
  EXPECT_EQ(S.Releases, 6u);
  EXPECT_EQ(S.FastPath, 2u);
  EXPECT_EQ(S.DepthBuckets[0], 2u);
  EXPECT_EQ(S.DepthBuckets[1], 1u);
  EXPECT_EQ(S.DepthBuckets[2], 1u);
  EXPECT_EQ(S.DepthBuckets[3], 2u);
  EXPECT_DOUBLE_EQ(S.depthFraction(0), 2.0 / 6.0);
}

TEST_F(ThinLockStatsTest, CountsOverflowInflation) {
  Object *Obj = TheHeap.allocate(*Class);
  for (int I = 0; I < 257; ++I)
    Locks.lock(Obj, Main);
  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_EQ(S.OverflowInflations, 1u);
  EXPECT_EQ(S.inflations(), 1u);
  for (int I = 0; I < 257; ++I)
    Locks.unlock(Obj, Main);
}

TEST_F(ThinLockStatsTest, CountsWaitInflation) {
  Object *Obj = TheHeap.allocate(*Class);
  Locks.lock(Obj, Main);
  Locks.wait(Obj, Main, /*TimeoutNanos=*/1'000'000);
  Locks.unlock(Obj, Main);
  EXPECT_EQ(Stats.snapshot().WaitInflations, 1u);
}

TEST_F(ThinLockStatsTest, CountsContentionInflation) {
  Object *Obj = TheHeap.allocate(*Class);
  Locks.lock(Obj, Main);
  std::atomic<bool> Attempting{false};
  std::thread Other([&] {
    ScopedThreadAttachment Attachment(Registry);
    Attempting.store(true);
    Locks.lock(Obj, Attachment.context());
    Locks.unlock(Obj, Attachment.context());
  });
  while (!Attempting.load())
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Locks.unlock(Obj, Main);
  Other.join();
  EXPECT_EQ(Stats.snapshot().ContentionInflations, 1u);
}

TEST_F(ThinLockStatsTest, SummaryMentionsKeyCounters) {
  Object *Obj = TheHeap.allocate(*Class);
  Locks.lock(Obj, Main);
  Locks.unlock(Obj, Main);
  std::string Summary = Stats.summary();
  EXPECT_NE(Summary.find("locks=1"), std::string::npos);
  EXPECT_NE(Summary.find("unlocks=1"), std::string::npos);
  EXPECT_NE(Summary.find("first=100.0%"), std::string::npos);
}

TEST_F(ThinLockStatsTest, SnapshotBucketsSumToAcquisitions) {
  Object *A = TheHeap.allocate(*Class);
  Locks.lock(A, Main);   // depth 1 (fast path)
  Locks.lock(A, Main);   // depth 2
  Locks.unlock(A, Main);
  Locks.unlock(A, Main);

  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_DOUBLE_EQ(S.depthFraction(0), 0.5);
  EXPECT_DOUBLE_EQ(S.depthFraction(1), 0.5);
  // Acquisitions is derived from the buckets: every acquire lands in
  // exactly one bucket, so the sum is the total.
  uint64_t BucketSum = 0;
  for (unsigned B = 0; B < LockStats::NumDepthBuckets; ++B)
    BucketSum += S.DepthBuckets[B];
  EXPECT_EQ(S.Acquisitions, BucketSum);
}

TEST_F(ThinLockStatsTest, NullStatsDisablesRecording) {
  ThinLockManager Bare(Monitors, nullptr);
  Object *Obj = TheHeap.allocate(*Class);
  Bare.lock(Obj, Main);
  Bare.unlock(Obj, Main);
  EXPECT_EQ(Stats.snapshot().Acquisitions, 0u);
}
