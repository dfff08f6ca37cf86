//===- tests/conformance_test.cpp - Cross-protocol conformance ------------===//
//
// One behavioural suite, instantiated for every protocol in the registry
// (ThinLock, the JDK111/IBM112/EagerMonitor baselines, Fissile).
// Whatever the implementation strategy, Java monitor semantics must
// hold: mutual exclusion, recursion, wait/notify, ownership errors.
//
//===----------------------------------------------------------------------===//

#include "baselines/EagerMonitor.h"
#include "baselines/HotLocks.h"
#include "baselines/MonitorCache.h"
#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "protocols/FissileLock.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <type_traits>
#include <vector>

using namespace thinlocks;

namespace {

/// Factory trait: how to construct each protocol over shared substrates.
template <typename P> struct ProtocolMaker;

template <> struct ProtocolMaker<ThinLockManager> {
  MonitorTable Monitors;
  ThinLockManager Protocol{Monitors};
};

template <> struct ProtocolMaker<MonitorCache> {
  MonitorCache Protocol{/*PoolSize=*/64};
};

template <> struct ProtocolMaker<HotLocks> {
  HotLocks Protocol{/*NumHotLocks=*/32, /*PromotionThreshold=*/4,
                    /*PoolSize=*/64};
};

template <> struct ProtocolMaker<EagerMonitor> {
  EagerMonitor Protocol;
};

template <> struct ProtocolMaker<FissileLock> {
  FissileLock Protocol;
};

/// Negative concept check (the gap this seam closes): a protocol that
/// lacks the bounded-acquisition surface must be rejected at compile
/// time, not discovered as a template error inside a benchmark.
struct MissingTryLockProtocol {
  static const char *protocolName() { return "Broken"; }
  void lock(Object *, const ThreadContext &) {}
  void unlock(Object *, const ThreadContext &) {}
  bool unlockChecked(Object *, const ThreadContext &) { return false; }
  // No tryLock / tryLockFor.
  bool holdsLock(Object *, const ThreadContext &) const { return false; }
  uint32_t lockDepth(Object *, const ThreadContext &) const { return 0; }
  WaitStatus wait(Object *, const ThreadContext &, int64_t = -1) {
    return WaitStatus::NotOwner;
  }
  NotifyStatus notify(Object *, const ThreadContext &) {
    return NotifyStatus::NotOwner;
  }
  NotifyStatus notifyAll(Object *, const ThreadContext &) {
    return NotifyStatus::NotOwner;
  }
};
static_assert(!SyncProtocol<MissingTryLockProtocol>,
              "a protocol without tryLock/tryLockFor must not satisfy "
              "the SyncProtocol concept");

template <typename P> class ConformanceTest : public ::testing::Test {
protected:
  Heap TheHeap;
  ThreadRegistry Registry;
  ProtocolMaker<P> Maker;
  ThreadContext Main;
  const ClassInfo *Class = nullptr;

  void SetUp() override {
    Main = Registry.attach("main");
    Class = &TheHeap.classes().registerClass("C", 0);
  }
  void TearDown() override { Registry.detach(Main); }

  P &protocol() { return Maker.Protocol; }
  Object *newObject() { return TheHeap.allocate(*Class); }
};

using Protocols = ::testing::Types<ThinLockManager, MonitorCache, HotLocks,
                                   EagerMonitor, FissileLock>;
TYPED_TEST_SUITE(ConformanceTest, Protocols);

} // namespace

TYPED_TEST(ConformanceTest, ProtocolHasAName) {
  EXPECT_NE(TypeParam::protocolName(), nullptr);
  EXPECT_GT(std::string(TypeParam::protocolName()).size(), 0u);
}

TYPED_TEST(ConformanceTest, LockUnlockSingle) {
  Object *Obj = this->newObject();
  EXPECT_FALSE(this->protocol().holdsLock(Obj, this->Main));
  this->protocol().lock(Obj, this->Main);
  EXPECT_TRUE(this->protocol().holdsLock(Obj, this->Main));
  EXPECT_EQ(this->protocol().lockDepth(Obj, this->Main), 1u);
  this->protocol().unlock(Obj, this->Main);
  EXPECT_FALSE(this->protocol().holdsLock(Obj, this->Main));
  EXPECT_EQ(this->protocol().lockDepth(Obj, this->Main), 0u);
}

TYPED_TEST(ConformanceTest, RecursionToDepth300) {
  // Crosses the thin-lock 256-hold boundary; baselines must also cope.
  Object *Obj = this->newObject();
  for (uint32_t I = 1; I <= 300; ++I) {
    this->protocol().lock(Obj, this->Main);
    EXPECT_EQ(this->protocol().lockDepth(Obj, this->Main), I);
  }
  for (uint32_t I = 300; I >= 1; --I) {
    this->protocol().unlock(Obj, this->Main);
    EXPECT_EQ(this->protocol().lockDepth(Obj, this->Main), I - 1);
  }
}

TYPED_TEST(ConformanceTest, ContenderExcludedAtNestingBoundary) {
  // Pins the count-overflow boundary (256 holds stay thin; the 257th
  // inflates for ThinLock) as a pure semantics claim, so it must hold
  // for every protocol and under failpoint injection: however the
  // representation changes at the boundary, a contender stays excluded
  // until the owner has fully unwound all 257 holds.
  Object *Obj = this->newObject();
  for (uint32_t I = 1; I <= 257; ++I) {
    this->protocol().lock(Obj, this->Main);
    EXPECT_EQ(this->protocol().lockDepth(Obj, this->Main), I);
  }
  std::atomic<bool> Acquired{false};
  std::thread Contender([&] {
    ScopedThreadAttachment Attachment(this->Registry, "contender");
    this->protocol().lock(Obj, Attachment.context());
    Acquired.store(true, std::memory_order_release);
    this->protocol().unlock(Obj, Attachment.context());
  });
  for (uint32_t I = 257; I >= 1; --I) {
    // Exclusion makes this deterministic: Acquired can only flip once
    // every hold is gone, so a mis-counted unlock anywhere in the
    // unwind (the off-by-one shapes the boundary invites) trips it.
    EXPECT_FALSE(Acquired.load(std::memory_order_acquire));
    EXPECT_EQ(this->protocol().lockDepth(Obj, this->Main), I);
    this->protocol().unlock(Obj, this->Main);
    // Dwell just after crossing the inflation boundary and just before
    // the final release, where a premature handoff would surface.
    if (I == 257 || I == 256 || I == 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Contender.join();
  EXPECT_TRUE(Acquired.load(std::memory_order_acquire));
  EXPECT_FALSE(this->protocol().holdsLock(Obj, this->Main));
}

TYPED_TEST(ConformanceTest, TryLockUncontendedAndRecursive) {
  Object *Obj = this->newObject();
  EXPECT_TRUE(this->protocol().tryLock(Obj, this->Main));
  EXPECT_EQ(this->protocol().lockDepth(Obj, this->Main), 1u);
  EXPECT_TRUE(this->protocol().tryLock(Obj, this->Main));
  EXPECT_EQ(this->protocol().lockDepth(Obj, this->Main), 2u);
  this->protocol().unlock(Obj, this->Main);
  this->protocol().unlock(Obj, this->Main);
  EXPECT_FALSE(this->protocol().holdsLock(Obj, this->Main));
}

TYPED_TEST(ConformanceTest, TryLockForTimesOutThenAcquires) {
  Object *Obj = this->newObject();
  this->protocol().lock(Obj, this->Main);
  std::atomic<bool> Failed{false};
  std::thread Contender([&] {
    ScopedThreadAttachment Attachment(this->Registry, "trier");
    EXPECT_FALSE(this->protocol().tryLock(Obj, Attachment.context()));
    EXPECT_EQ(this->protocol().tryLockFor(Obj, Attachment.context(),
                                          /*TimeoutNanos=*/2'000'000),
              TimedLockStatus::TimedOut);
    Failed.store(true, std::memory_order_release);
    // Unbounded-enough retry: once the owner releases, a bounded
    // acquisition must succeed.
    TimedLockStatus Status = TimedLockStatus::TimedOut;
    while (Status != TimedLockStatus::Acquired)
      Status = this->protocol().tryLockFor(Obj, Attachment.context(),
                                           /*TimeoutNanos=*/5'000'000);
    EXPECT_TRUE(this->protocol().holdsLock(Obj, Attachment.context()));
    this->protocol().unlock(Obj, Attachment.context());
  });
  while (!Failed.load(std::memory_order_acquire))
    std::this_thread::yield();
  this->protocol().unlock(Obj, this->Main);
  Contender.join();
}

TYPED_TEST(ConformanceTest, NonPositiveTryLockForTimeoutNeverBlocks) {
  // The timeout contract (core/LockProtocol.h): a non-positive timeout
  // makes one attempt and never blocks — no protocol may read a negative
  // value as "wait forever".  The holder keeps the monitor for ~200 ms,
  // so an attempt that blocked returns only after Released flips.
  Object *Obj = this->newObject();
  std::atomic<bool> Held{false};
  std::atomic<bool> Released{false};
  std::thread Holder([&] {
    ScopedThreadAttachment Attachment(this->Registry, "holder");
    this->protocol().lock(Obj, Attachment.context());
    Held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    Released.store(true, std::memory_order_release);
    this->protocol().unlock(Obj, Attachment.context());
  });
  while (!Held.load(std::memory_order_acquire))
    std::this_thread::yield();
  for (int64_t TimeoutNanos : {int64_t{-1}, int64_t{0}}) {
    TimedLockStatus Status =
        this->protocol().tryLockFor(Obj, this->Main, TimeoutNanos);
    EXPECT_FALSE(Released.load(std::memory_order_acquire))
        << "tryLockFor(" << TimeoutNanos << ") blocked until the release";
    EXPECT_EQ(Status, TimedLockStatus::TimedOut)
        << "tryLockFor(" << TimeoutNanos << ")";
    if (Status == TimedLockStatus::Acquired)
      this->protocol().unlock(Obj, this->Main);
  }
  Holder.join();
}

TYPED_TEST(ConformanceTest, NonThinProtocolsNeverReportDeadlock) {
  // The degradeToTimedOut contract (core/LockProtocol.h): a protocol
  // without a waits-for graph has no basis to claim Deadlock, so a
  // bounded acquire that fails must report TimedOut — even on a genuine
  // ABBA deadlock, the hardest schedule to stay honest about.  Only
  // ThinLock (the one protocol with a cycle detector) may upgrade the
  // verdict; generic consumers (the txn engine's wait-die policy) treat
  // Deadlock as a precise abort signal, so a mis-report here would turn
  // into spurious aborts downstream.
  Object *A = this->newObject();
  Object *B = this->newObject();
  this->protocol().lock(A, this->Main);

  // Phase 0: starting; 1: other holds B; 2: other's attempt returned;
  // 3: main's attempt returned too — both sides may release.
  std::atomic<int> Phase{0};
  std::atomic<TimedLockStatus> OtherStatus{TimedLockStatus::Acquired};
  std::thread Other([&] {
    ScopedThreadAttachment Attachment(this->Registry, "abba");
    this->protocol().lock(B, Attachment.context());
    Phase.store(1, std::memory_order_release);
    OtherStatus.store(this->protocol().tryLockFor(A, Attachment.context(),
                                                  /*TimeoutNanos=*/
                                                  150'000'000),
                      std::memory_order_release);
    Phase.store(2, std::memory_order_release);
    while (Phase.load(std::memory_order_acquire) != 3)
      std::this_thread::yield();
    this->protocol().unlock(B, Attachment.context());
  });

  while (Phase.load(std::memory_order_acquire) < 1)
    std::this_thread::yield();
  // Both holders keep holding until phase 3, so neither bounded attempt
  // can ever acquire — each must classify its failure.
  TimedLockStatus Mine =
      this->protocol().tryLockFor(B, this->Main, /*TimeoutNanos=*/
                                  150'000'000);
  while (Phase.load(std::memory_order_acquire) < 2)
    std::this_thread::yield();
  TimedLockStatus Theirs = OtherStatus.load(std::memory_order_acquire);

  for (TimedLockStatus Status : {Mine, Theirs}) {
    ASSERT_NE(Status, TimedLockStatus::Acquired);
    if constexpr (std::is_same_v<TypeParam, ThinLockManager>) {
      // The detector may confirm the cycle at either deadline (timing
      // decides which side sees it); TimedOut is also legal.
      EXPECT_TRUE(Status == TimedLockStatus::TimedOut ||
                  Status == TimedLockStatus::Deadlock);
    } else {
      EXPECT_EQ(Status, TimedLockStatus::TimedOut)
          << "a protocol without a waits-for graph reported Deadlock";
    }
  }

  Phase.store(3, std::memory_order_release);
  this->protocol().unlock(A, this->Main);
  Other.join();
}

TYPED_TEST(ConformanceTest, UnlockCheckedOnUnownedFails) {
  Object *Obj = this->newObject();
  EXPECT_FALSE(this->protocol().unlockChecked(Obj, this->Main));
  this->protocol().lock(Obj, this->Main);
  EXPECT_TRUE(this->protocol().unlockChecked(Obj, this->Main));
  EXPECT_FALSE(this->protocol().unlockChecked(Obj, this->Main));
}

TYPED_TEST(ConformanceTest, IndependentObjectsIndependentOwners) {
  Object *A = this->newObject();
  Object *B = this->newObject();
  this->protocol().lock(A, this->Main);
  std::thread Other([&] {
    ScopedThreadAttachment Attachment(this->Registry);
    this->protocol().lock(B, Attachment.context());
    EXPECT_TRUE(this->protocol().holdsLock(B, Attachment.context()));
    EXPECT_FALSE(this->protocol().holdsLock(A, Attachment.context()));
    this->protocol().unlock(B, Attachment.context());
  });
  Other.join();
  EXPECT_TRUE(this->protocol().holdsLock(A, this->Main));
  EXPECT_FALSE(this->protocol().holdsLock(B, this->Main));
  this->protocol().unlock(A, this->Main);
}

TYPED_TEST(ConformanceTest, MutualExclusionCounterInvariant) {
  Object *Obj = this->newObject();
  constexpr int NumThreads = 4;
  constexpr int PerThread = 3000;
  uint64_t Shared = 0; // Protected by Obj's monitor.
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T) {
    Workers.emplace_back([&] {
      ScopedThreadAttachment Attachment(this->Registry);
      for (int I = 0; I < PerThread; ++I) {
        this->protocol().lock(Obj, Attachment.context());
        ++Shared;
        this->protocol().unlock(Obj, Attachment.context());
      }
    });
  }
  for (auto &W : Workers)
    W.join();
  EXPECT_EQ(Shared, static_cast<uint64_t>(NumThreads) * PerThread);
}

TYPED_TEST(ConformanceTest, ManyObjectsManyThreads) {
  constexpr int NumObjects = 64;
  constexpr int NumThreads = 4;
  constexpr int PerThread = 2000;
  std::vector<Object *> Objects;
  std::vector<uint64_t> Counters(NumObjects, 0);
  for (int I = 0; I < NumObjects; ++I)
    Objects.push_back(this->newObject());
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T) {
    Workers.emplace_back([&, T] {
      ScopedThreadAttachment Attachment(this->Registry);
      uint64_t State = T * 1299709 + 12345;
      for (int I = 0; I < PerThread; ++I) {
        State = State * 6364136223846793005ull + 1442695040888963407ull;
        int Index = static_cast<int>((State >> 33) % NumObjects);
        this->protocol().lock(Objects[Index], Attachment.context());
        ++Counters[Index];
        this->protocol().unlock(Objects[Index], Attachment.context());
      }
    });
  }
  for (auto &W : Workers)
    W.join();
  uint64_t Total = 0;
  for (uint64_t C : Counters)
    Total += C;
  EXPECT_EQ(Total, static_cast<uint64_t>(NumThreads) * PerThread);
}

TYPED_TEST(ConformanceTest, WaitNotifyHandshake) {
  Object *Obj = this->newObject();
  std::atomic<int> Phase{0};

  std::thread Waiter([&] {
    ScopedThreadAttachment Attachment(this->Registry, "waiter");
    this->protocol().lock(Obj, Attachment.context());
    Phase.store(1);
    WaitStatus Status = this->protocol().wait(Obj, Attachment.context(), -1);
    EXPECT_EQ(Status, WaitStatus::Notified);
    Phase.store(2);
    this->protocol().unlock(Obj, Attachment.context());
  });

  while (Phase.load() != 1)
    std::this_thread::yield();
  // Acquire, which guarantees the waiter is inside wait() (it holds the
  // monitor until wait releases it).
  this->protocol().lock(Obj, this->Main);
  EXPECT_EQ(Phase.load(), 1);
  EXPECT_EQ(this->protocol().notify(Obj, this->Main), NotifyStatus::Ok);
  this->protocol().unlock(Obj, this->Main);
  Waiter.join();
  EXPECT_EQ(Phase.load(), 2);
}

TYPED_TEST(ConformanceTest, TimedWaitTimesOutAndReacquires) {
  Object *Obj = this->newObject();
  this->protocol().lock(Obj, this->Main);
  WaitStatus Status =
      this->protocol().wait(Obj, this->Main, /*TimeoutNanos=*/5'000'000);
  EXPECT_EQ(Status, WaitStatus::TimedOut);
  EXPECT_TRUE(this->protocol().holdsLock(Obj, this->Main));
  this->protocol().unlock(Obj, this->Main);
}

TYPED_TEST(ConformanceTest, WaitNotifyRequireOwnership) {
  Object *Obj = this->newObject();
  EXPECT_EQ(this->protocol().wait(Obj, this->Main, 0),
            WaitStatus::NotOwner);
  EXPECT_EQ(this->protocol().notify(Obj, this->Main),
            NotifyStatus::NotOwner);
  EXPECT_EQ(this->protocol().notifyAll(Obj, this->Main),
            NotifyStatus::NotOwner);
}

TYPED_TEST(ConformanceTest, NotifyAllWakesAllWaiters) {
  Object *Obj = this->newObject();
  constexpr int NumWaiters = 3;
  std::atomic<int> Woken{0};
  std::atomic<int> Ready{0};
  std::vector<std::thread> Waiters;
  for (int T = 0; T < NumWaiters; ++T) {
    Waiters.emplace_back([&] {
      ScopedThreadAttachment Attachment(this->Registry);
      this->protocol().lock(Obj, Attachment.context());
      Ready.fetch_add(1);
      EXPECT_EQ(this->protocol().wait(Obj, Attachment.context(), -1),
                WaitStatus::Notified);
      Woken.fetch_add(1);
      this->protocol().unlock(Obj, Attachment.context());
    });
  }
  // Each waiter holds the monitor from lock() until wait() releases it,
  // so once Ready == 3 *and* we can acquire the monitor, all three are in
  // the wait set.
  while (Ready.load() != NumWaiters)
    std::this_thread::yield();
  this->protocol().lock(Obj, this->Main);
  EXPECT_EQ(this->protocol().notifyAll(Obj, this->Main), NotifyStatus::Ok);
  this->protocol().unlock(Obj, this->Main);
  for (auto &W : Waiters)
    W.join();
  EXPECT_EQ(Woken.load(), NumWaiters);
}

TYPED_TEST(ConformanceTest, DepthSurvivesWait) {
  Object *Obj = this->newObject();
  std::atomic<bool> Waiting{false};
  std::thread Waiter([&] {
    ScopedThreadAttachment Attachment(this->Registry);
    this->protocol().lock(Obj, Attachment.context());
    this->protocol().lock(Obj, Attachment.context());
    Waiting.store(true);
    EXPECT_EQ(this->protocol().wait(Obj, Attachment.context(), -1),
              WaitStatus::Notified);
    EXPECT_EQ(this->protocol().lockDepth(Obj, Attachment.context()), 2u);
    this->protocol().unlock(Obj, Attachment.context());
    this->protocol().unlock(Obj, Attachment.context());
  });
  while (!Waiting.load())
    std::this_thread::yield();
  // The waiter holds the monitor from lock() to wait(); acquiring it here
  // proves the waiter is in the wait set.
  this->protocol().lock(Obj, this->Main);
  this->protocol().notifyAll(Obj, this->Main);
  this->protocol().unlock(Obj, this->Main);
  Waiter.join();
}
