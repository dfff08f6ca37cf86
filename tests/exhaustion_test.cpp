//===- tests/exhaustion_test.cpp - Resource-exhaustion & failure modes ----===//
//
// The robustness layers beyond the paper, exercised with *real* resource
// pressure (no failpoints needed, so these run in every build mode):
//
//  - nested-hold count overflow across the 255/256/257 boundary;
//  - MonitorTable exhaustion and the shared emergency-monitor degradation
//    (including its documented coarsening artifacts);
//  - ThreadRegistry index exhaustion as a typed error, and the
//    quarantine that keeps a recycled index from impersonating a dead
//    thread's abandoned locks;
//  - the deadlock detector: tryLockFor distinguishing TimedOut from a
//    double-confirmed Deadlock, and the lock() watchdog aborting with a
//    formatted cycle report;
//  - corrupted lock words terminating loudly in every build mode.
//
//===----------------------------------------------------------------------===//

#include "core/Deadlock.h"
#include "core/OwnershipAudit.h"
#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "threads/ThreadRegistry.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

using namespace thinlocks;

namespace {

class ExhaustionTest : public ::testing::Test {
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
    Class = &TheHeap.classes().registerClass("T", 1);
  }
  void TearDown() override { Registry.detach(Main); }

  Object *newObject() { return TheHeap.allocate(*Class); }
};

/// Same stack with a monitor table small enough to exhaust for real.
class SmallTableTest : public ::testing::Test {
protected:
  static constexpr uint32_t Capacity = 4; // allocate() hands out 1..3.
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors{Capacity};
  LockStats Stats;
  ThinLockManager Locks{Monitors, &Stats};
  ThreadContext Main;
  const ClassInfo *Class = nullptr;

  void SetUp() override {
    Main = Registry.attach("main");
    Class = &TheHeap.classes().registerClass("T", 1);
  }
  void TearDown() override { Registry.detach(Main); }

  Object *newObject() { return TheHeap.allocate(*Class); }

  /// Forces inflation of \p Obj via wait() (always inflates).
  void inflate(Object *Obj) {
    Locks.lock(Obj, Main);
    EXPECT_EQ(Locks.wait(Obj, Main, 1'000'000), WaitStatus::TimedOut);
    Locks.unlock(Obj, Main);
    EXPECT_TRUE(Locks.isInflated(Obj));
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Count overflow boundary (paper §2.3.3: 8-bit count = holds - 1).
//===----------------------------------------------------------------------===//

TEST_F(ExhaustionTest, CountOverflowBoundary255_256_257) {
  Object *Obj = newObject();

  // Holds 1..255: thin, count = holds - 1.
  for (uint32_t Hold = 1; Hold <= 255; ++Hold)
    Locks.lock(Obj, Main);
  uint32_t Word = Obj->lockWord().load();
  ASSERT_TRUE(lockword::isThin(Word));
  EXPECT_EQ(lockword::countOf(Word), 254u);
  EXPECT_EQ(Locks.lockDepth(Obj, Main), 255u);

  // Hold 256: the count field saturates exactly at its maximum.
  Locks.lock(Obj, Main);
  Word = Obj->lockWord().load();
  ASSERT_TRUE(lockword::isThin(Word));
  EXPECT_EQ(lockword::countOf(Word), lockword::MaxCount);
  EXPECT_EQ(Locks.lockDepth(Obj, Main), 256u);
  EXPECT_EQ(Stats.snapshot().OverflowInflations, 0u);

  // Hold 257: no room in 8 bits — inflate, transferring all 257 holds.
  Locks.lock(Obj, Main);
  EXPECT_TRUE(Locks.isInflated(Obj));
  EXPECT_EQ(Locks.lockDepth(Obj, Main), 257u);
  EXPECT_EQ(Stats.snapshot().OverflowInflations, 1u);

  // Recursive unlock all the way down, through the fat lock.
  for (uint32_t Hold = 257; Hold >= 1; --Hold) {
    EXPECT_EQ(Locks.lockDepth(Obj, Main), Hold);
    Locks.unlock(Obj, Main);
  }
  EXPECT_FALSE(Locks.holdsLock(Obj, Main));
  EXPECT_EQ(Locks.lockDepth(Obj, Main), 0u);
  // Inflation is permanent (paper discipline; deflation is off here).
  EXPECT_TRUE(Locks.isInflated(Obj));

  // The inflated monitor still supports re-entry after full release.
  Locks.lock(Obj, Main);
  EXPECT_EQ(Locks.lockDepth(Obj, Main), 1u);
  Locks.unlock(Obj, Main);
}

//===----------------------------------------------------------------------===//
// MonitorTable exhaustion and the emergency monitor.
//===----------------------------------------------------------------------===//

TEST(MonitorTableExhaustion, AllocateReturnsZeroWhenFull) {
  MonitorTable Table(8); // Usable indices 1..7; emergency pinned at 8.
  std::vector<uint32_t> Indices;
  for (uint32_t I = 1; I <= 7; ++I) {
    uint32_t Index = Table.allocate();
    ASSERT_NE(Index, 0u);
    Indices.push_back(Index);
    EXPECT_NE(Table.get(Index), nullptr);
  }
  std::sort(Indices.begin(), Indices.end());
  for (uint32_t I = 0; I < 7; ++I)
    EXPECT_EQ(Indices[I], I + 1);

  EXPECT_EQ(Table.allocate(), 0u);
  EXPECT_EQ(Table.allocate(), 0u);
  EXPECT_EQ(Table.exhaustionEvents(), 2u);
  EXPECT_EQ(Table.liveMonitorCount(), 7u);

  EXPECT_EQ(Table.emergencyIndex(), 8u);
  EXPECT_NE(Table.get(Table.emergencyIndex()), nullptr);
  EXPECT_FALSE(Table.mayRetire(lockword::makeFat(Table.emergencyIndex(), 0)));
}

TEST_F(SmallTableTest, ExhaustionDegradesToSharedEmergencyMonitor) {
  // Six objects inflate against 3 allocatable monitors: the first three
  // get private fat locks, the rest all land on the emergency monitor.
  std::vector<Object *> Objects;
  for (int I = 0; I < 6; ++I) {
    Objects.push_back(newObject());
    inflate(Objects.back());
  }

  uint32_t EmergencyCount = 0;
  for (Object *Obj : Objects)
    if (lockword::monitorIndexOf(Obj->lockWord().load()) ==
        Monitors.emergencyIndex())
      ++EmergencyCount;
  EXPECT_EQ(EmergencyCount, 3u);
  EXPECT_EQ(Stats.snapshot().EmergencyInflations, 3u);
  EXPECT_EQ(Monitors.exhaustionEvents(), 3u);
  EXPECT_EQ(Monitors.liveMonitorCount(), 3u);

  // Degraded-mode semantics on two emergency-monitored objects: mutual
  // exclusion and balanced nesting still hold, but the shared monitor
  // *coarsens* — holding one emergency object reports ownership of all
  // of them, and depths merge.  DESIGN.md documents this as the accepted
  // cost of the last-resort mode.
  Object *A = Objects[3];
  Object *B = Objects[4];
  ASSERT_EQ(lockword::monitorIndexOf(A->lockWord().load()),
            Monitors.emergencyIndex());
  ASSERT_EQ(lockword::monitorIndexOf(B->lockWord().load()),
            Monitors.emergencyIndex());

  Locks.lock(A, Main);
  EXPECT_TRUE(Locks.holdsLock(A, Main));
  EXPECT_TRUE(Locks.holdsLock(B, Main)); // Coarsening artifact.
  Locks.lock(B, Main);
  EXPECT_EQ(Locks.lockDepth(A, Main), 2u); // Merged hold count.
  Locks.unlock(B, Main);
  EXPECT_EQ(Locks.lockDepth(A, Main), 1u);
  Locks.unlock(A, Main);
  EXPECT_FALSE(Locks.holdsLock(A, Main));
  EXPECT_FALSE(Locks.holdsLock(B, Main));

  // The emergency monitor still excludes across threads.
  Locks.lock(A, Main);
  std::atomic<bool> Acquired{false};
  std::thread Other([&] {
    ScopedThreadAttachment Attachment(Registry, "other");
    Locks.lock(B, Attachment.context()); // Same shared monitor as A.
    Acquired.store(true);
    Locks.unlock(B, Attachment.context());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(Acquired.load()); // Blocked while we hold A.
  Locks.unlock(A, Main);
  Other.join();
  EXPECT_TRUE(Acquired.load());
}

//===----------------------------------------------------------------------===//
// ThreadRegistry exhaustion and index quarantine.
//===----------------------------------------------------------------------===//

TEST(ThreadRegistryExhaustion, AttachFailsTypedAtIndex32768) {
  ThreadRegistry Registry;
  std::vector<ThreadContext> Contexts;
  Contexts.reserve(ThreadRegistry::MaxThreadIndex);
  for (uint32_t I = 0; I < ThreadRegistry::MaxThreadIndex; ++I) {
    AttachError Error = AttachError::Exhausted;
    ThreadContext Ctx = Registry.attach(std::string(), &Error);
    ASSERT_TRUE(Ctx.isValid()) << "attach " << I << " failed early";
    ASSERT_EQ(Error, AttachError::None);
    Contexts.push_back(Ctx);
  }
  EXPECT_EQ(Registry.liveThreadCount(), ThreadRegistry::MaxThreadIndex);

  // Index 0 is reserved, so the 32768th simultaneous attach must fail —
  // with the typed reason, not just an invalid context.
  AttachError Error = AttachError::None;
  ThreadContext Overflow = Registry.attach("overflow", &Error);
  EXPECT_FALSE(Overflow.isValid());
  EXPECT_EQ(Error, AttachError::Exhausted);
  EXPECT_EQ(Registry.exhaustionEvents(), 1u);

  // Releasing any index makes attach work again.
  Registry.detach(Contexts.back());
  Contexts.pop_back();
  ThreadContext Recovered = Registry.attach("recovered", &Error);
  EXPECT_TRUE(Recovered.isValid());
  EXPECT_EQ(Error, AttachError::None);
  Registry.detach(Recovered);

  for (ThreadContext &Ctx : Contexts)
    Registry.detach(Ctx);
  EXPECT_EQ(Registry.liveThreadCount(), 0u);
}

TEST(IndexQuarantine, DetachQuarantinesIndexStillInLiveLockWord) {
  Heap TheHeap;
  MonitorTable Monitors;
  ThreadRegistry Registry;
  Registry.setIndexAuditor(makeLockWordAuditor(TheHeap, Monitors));
  ThinLockManager Locks{Monitors};
  const ClassInfo &Class = TheHeap.classes().registerClass("T", 1);

  // A thread locks an object and detaches without unlocking (thread
  // death with a held monitor).
  ThreadContext Evil = Registry.attach("evil");
  uint16_t EvilIndex = Evil.index();
  Object *Obj = TheHeap.allocate(Class);
  Locks.lock(Obj, Evil);
  Registry.detach(Evil);
  EXPECT_EQ(Registry.quarantinedIndexCount(), 1u);

  // The stale word still encodes EvilIndex, but a fresh attach must not
  // receive that index — so it cannot falsely own the abandoned lock.
  ThreadContext Fresh = Registry.attach("fresh");
  EXPECT_NE(Fresh.index(), EvilIndex);
  EXPECT_FALSE(Locks.holdsLock(Obj, Fresh));
  EXPECT_EQ(Locks.lockDepth(Obj, Fresh), 0u);
  Registry.detach(Fresh);
  EXPECT_EQ(Registry.quarantinedIndexCount(), 1u);
}

TEST(IndexQuarantine, WithoutAuditorRecycledIndexImpersonatesDeadOwner) {
  // The hazard the auditor exists to prevent, demonstrated: with plain
  // recycling, the next thread inherits the dead thread's index and the
  // stale thin word says it owns a lock it never took.
  Heap TheHeap;
  MonitorTable Monitors;
  ThreadRegistry Registry; // No auditor installed.
  ThinLockManager Locks{Monitors};
  const ClassInfo &Class = TheHeap.classes().registerClass("T", 1);

  ThreadContext Evil = Registry.attach("evil");
  uint16_t EvilIndex = Evil.index();
  Object *Obj = TheHeap.allocate(Class);
  Locks.lock(Obj, Evil);
  Registry.detach(Evil);
  EXPECT_EQ(Registry.quarantinedIndexCount(), 0u);

  ThreadContext Imposter = Registry.attach("imposter");
  ASSERT_EQ(Imposter.index(), EvilIndex); // LIFO recycling.
  EXPECT_TRUE(Locks.holdsLock(Obj, Imposter)); // The false ownership.
  // Clean up the stale word so teardown sees a consistent heap.
  Locks.unlock(Obj, Imposter);
  Registry.detach(Imposter);
}

TEST(OwnershipAudit, ObjectsLockedByFindsThinAndFatOwnership) {
  Heap TheHeap;
  MonitorTable Monitors;
  ThreadRegistry Registry;
  ThinLockManager Locks{Monitors};
  const ClassInfo &Class = TheHeap.classes().registerClass("T", 1);
  ThreadContext Main = Registry.attach("main");

  Object *Thin = TheHeap.allocate(Class);
  Object *Fat = TheHeap.allocate(Class);
  Object *Idle = TheHeap.allocate(Class);
  Locks.lock(Thin, Main);
  Locks.lock(Fat, Main);
  EXPECT_EQ(Locks.wait(Fat, Main, 1'000'000), WaitStatus::TimedOut);
  ASSERT_TRUE(Locks.isInflated(Fat));

  std::vector<const Object *> Owned =
      objectsLockedBy(Main.index(), TheHeap, Monitors);
  EXPECT_EQ(Owned.size(), 2u);
  EXPECT_NE(std::find(Owned.begin(), Owned.end(), Thin), Owned.end());
  EXPECT_NE(std::find(Owned.begin(), Owned.end(), Fat), Owned.end());
  EXPECT_EQ(std::find(Owned.begin(), Owned.end(), Idle), Owned.end());

  Locks.unlock(Fat, Main);
  Locks.unlock(Thin, Main);
  EXPECT_TRUE(objectsLockedBy(Main.index(), TheHeap, Monitors).empty());
  Registry.detach(Main);
}

//===----------------------------------------------------------------------===//
// Deadlock detection.
//===----------------------------------------------------------------------===//

TEST_F(ExhaustionTest, TryLockForTimesOutWithoutFalseDeadlock) {
  Object *Obj = newObject();
  std::atomic<bool> Locked{false};
  std::atomic<bool> Release{false};
  std::thread Holder([&] {
    ScopedThreadAttachment Attachment(Registry, "holder");
    Locks.lock(Obj, Attachment.context());
    Locked.store(true);
    while (!Release.load())
      std::this_thread::yield();
    Locks.unlock(Obj, Attachment.context());
  });
  while (!Locked.load())
    std::this_thread::yield();

  // The holder is running, not blocked: no cycle exists, so the bounded
  // acquire reports a plain timeout.
  DeadlockReport Report;
  EXPECT_EQ(Locks.tryLockFor(Obj, Main, 30'000'000, &Report),
            TimedLockStatus::TimedOut);
  EXPECT_FALSE(Report.hasCycle());
  EXPECT_GE(Stats.snapshot().TimedOutAcquisitions, 1u);
  EXPECT_EQ(Stats.snapshot().DeadlocksDetected, 0u);

  Release.store(true);
  Holder.join();
  // And with the holder gone, the same call acquires.
  EXPECT_EQ(Locks.tryLockFor(Obj, Main, 30'000'000),
            TimedLockStatus::Acquired);
  Locks.unlock(Obj, Main);
}

TEST_F(ExhaustionTest, TryLockForConfirmsTwoThreadCycle) {
  // Watchdog must not abort: main deliberately creates the cycle and
  // expects the *typed* Deadlock status back.
  ContentionOptions Options;
  Options.AbortOnDeadlock = false;
  Locks.setContentionOptions(Options);

  Object *A = newObject();
  Object *B = newObject();
  Locks.lock(A, Main);

  std::atomic<uint16_t> T2Index{0};
  std::thread T2([&] {
    ScopedThreadAttachment Attachment(Registry, "t2");
    Locks.lock(B, Attachment.context());
    T2Index.store(Attachment.context().index());
    Locks.lock(A, Attachment.context()); // Blocks until main unlocks A.
    Locks.unlock(A, Attachment.context());
    Locks.unlock(B, Attachment.context());
  });

  // Wait until T2's waits-for edge (blocked on A) is published, so the
  // cycle exists before we start the bounded acquire.
  while (T2Index.load() == 0 ||
         Registry.blockedOn(T2Index.load()) != A)
    std::this_thread::yield();

  DeadlockReport Report;
  EXPECT_EQ(Locks.tryLockFor(B, Main, 50'000'000, &Report),
            TimedLockStatus::Deadlock);
  ASSERT_TRUE(Report.hasCycle());
  ASSERT_EQ(Report.Cycle.size(), 2u);

  std::string Formatted = Report.format();
  EXPECT_NE(Formatted.find("deadlock"), std::string::npos);
  EXPECT_NE(Formatted.find("main"), std::string::npos);
  EXPECT_NE(Formatted.find("t2"), std::string::npos);
  // The cycle names both contested objects with their hold counts.
  bool SawA = false, SawB = false;
  for (const DeadlockEdge &Edge : Report.Cycle) {
    SawA = SawA || Edge.WaitsFor == A;
    SawB = SawB || Edge.WaitsFor == B;
    EXPECT_GE(Edge.OwnerHolds, 1u);
  }
  EXPECT_TRUE(SawA);
  EXPECT_TRUE(SawB);
  EXPECT_GE(Stats.snapshot().DeadlocksDetected, 1u);

  // Break the cycle; everything drains and the system recovers.
  Locks.unlock(A, Main);
  T2.join();
  EXPECT_EQ(Locks.tryLockFor(B, Main, 1'000'000'000),
            TimedLockStatus::Acquired);
  Locks.unlock(B, Main);
}

TEST_F(ExhaustionTest, TryLockForConfirmsTwoThreadCycleThroughInflatedMonitors) {
  // The fat twin of TryLockForConfirmsTwoThreadCycle, under the default
  // ContentionOptions (AbortOnDeadlock on): both monitors are inflated
  // before the cycle forms, so main's bounded acquire waits in the fat
  // branch and must end in the typed Deadlock at its deadline — never
  // in the aborting watchdog.
  Object *A = newObject();
  Object *B = newObject();
  Locks.lock(A, Main);
  Locks.inflate(A, Main);

  std::atomic<uint16_t> T2Index{0};
  std::thread T2([&] {
    ScopedThreadAttachment Attachment(Registry, "t2");
    Locks.lock(B, Attachment.context());
    Locks.inflate(B, Attachment.context());
    T2Index.store(Attachment.context().index());
    Locks.lock(A, Attachment.context()); // Blocks until main unlocks A.
    Locks.unlock(A, Attachment.context());
    Locks.unlock(B, Attachment.context());
  });
  while (T2Index.load() == 0 ||
         Registry.blockedOn(T2Index.load()) != A)
    std::this_thread::yield();
  EXPECT_TRUE(Locks.isInflated(A));
  EXPECT_TRUE(Locks.isInflated(B));

  DeadlockReport Report;
  EXPECT_EQ(Locks.tryLockFor(B, Main, 50'000'000, &Report),
            TimedLockStatus::Deadlock);
  EXPECT_EQ(Report.Cycle.size(), 2u);
  bool SawA = false, SawB = false;
  for (const DeadlockEdge &Edge : Report.Cycle) {
    SawA = SawA || Edge.WaitsFor == A;
    SawB = SawB || Edge.WaitsFor == B;
  }
  EXPECT_TRUE(SawA);
  EXPECT_TRUE(SawB);
  EXPECT_GE(Stats.snapshot().DeadlocksDetected, 1u);

  Locks.unlock(A, Main);
  T2.join();
  EXPECT_EQ(Locks.tryLockFor(B, Main, 1'000'000'000),
            TimedLockStatus::Acquired);
  Locks.unlock(B, Main);
}

TEST_F(ExhaustionTest, LockWaitersKeepTheirFatLockPlacesAcrossWatchdogSlices) {
  // lock() on an inflated monitor ticks the deadlock watchdog once per
  // WatchdogSliceNanos (1 s) of waiting.  A waiter keeps its place in
  // the entry queue through every tick: behind a 2.5 s hold, B queues
  // at t = 0 and C at t = 0.5 s, and B enters first although its wait
  // spans two ticks.
  Object *A = newObject();
  Locks.lock(A, Main);
  Locks.inflate(A, Main);
  FatLock *Fat = Monitors.resolve(A->lockWord().load());
  std::mutex OrderMutex;
  std::vector<char> Order;
  auto startWaiter = [&](char Name) {
    return std::thread([&, Name] {
      ScopedThreadAttachment Attachment(Registry, "waiter");
      Locks.lock(A, Attachment.context());
      {
        std::lock_guard<std::mutex> Guard(OrderMutex);
        Order.push_back(Name);
      }
      Locks.unlock(A, Attachment.context());
    });
  };
  const auto Start = std::chrono::steady_clock::now();
  std::thread B = startWaiter('B');
  while (Fat->entryQueueLength() != 1)
    std::this_thread::yield();
  std::this_thread::sleep_until(Start + std::chrono::milliseconds(500));
  std::thread C = startWaiter('C');
  while (Fat->entryQueueLength() != 2)
    std::this_thread::yield();
  std::this_thread::sleep_until(Start + std::chrono::milliseconds(2500));
  EXPECT_EQ(Fat->entryQueueLength(), 2u);
  Locks.unlock(A, Main);
  B.join();
  C.join();
  EXPECT_EQ(Order, (std::vector<char>{'B', 'C'}));
}

TEST(DeadlockWatchdogDeathTest, BlockedLockAbortsWithCycleReport) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The default policy: a confirmed cycle in plain lock() is fatal and
  // the report names the cycle.  A short park period makes the watchdog
  // fire within milliseconds instead of seconds: eight parks of the
  // default ladder sleep about 7 ms.
  EXPECT_DEATH(
      ([] {
        Heap TheHeap;
        ThreadRegistry Registry;
        MonitorTable Monitors;
        ContentionOptions Options;
        Options.WatchdogParkPeriod = 8;
        Options.AbortOnDeadlock = true;
        ThinLockManager Locks{Monitors, nullptr, DeflationPolicy::Never,
                              Options};
        const ClassInfo &Class = TheHeap.classes().registerClass("T", 1);
        Object *A = TheHeap.allocate(Class);
        Object *B = TheHeap.allocate(Class);

        ThreadContext Main = Registry.attach("main");
        Locks.lock(A, Main);
        std::atomic<uint16_t> T2Index{0};
        std::thread T2([&] {
          ScopedThreadAttachment Attachment(Registry, "t2");
          Locks.lock(B, Attachment.context());
          T2Index.store(Attachment.context().index());
          Locks.lock(A, Attachment.context()); // Never returns: aborts.
        });
        while (T2Index.load() == 0 ||
               Registry.blockedOn(T2Index.load()) != A)
          std::this_thread::yield();
        Locks.lock(B, Main); // Watchdog confirms the cycle and aborts.
        T2.join();           // Unreachable.
      })(),
      "deadlock");
}

TEST(DeadlockWatchdogDeathTest, BlockedInflatedLockAbortsWithCycleReport) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The fat twin of BlockedLockAbortsWithCycleReport: both monitors are
  // inflated before the cycle forms, so both threads wait queued on a
  // monitor, where plain lock() ticks the watchdog once per 1 s slice
  // without leaving the queue.  The first tick after the cycle closes
  // aborts with the report.
  EXPECT_DEATH(
      ([] {
        Heap TheHeap;
        ThreadRegistry Registry;
        MonitorTable Monitors;
        ContentionOptions Options;
        Options.AbortOnDeadlock = true;
        ThinLockManager Locks{Monitors, nullptr, DeflationPolicy::Never,
                              Options};
        const ClassInfo &Class = TheHeap.classes().registerClass("T", 1);
        Object *A = TheHeap.allocate(Class);
        Object *B = TheHeap.allocate(Class);

        ThreadContext Main = Registry.attach("main");
        Locks.lock(A, Main);
        Locks.inflate(A, Main);
        std::atomic<uint16_t> T2Index{0};
        std::thread T2([&] {
          ScopedThreadAttachment Attachment(Registry, "t2");
          Locks.lock(B, Attachment.context());
          Locks.inflate(B, Attachment.context());
          T2Index.store(Attachment.context().index());
          Locks.lock(A, Attachment.context()); // Never returns: aborts.
        });
        while (T2Index.load() == 0 ||
               Registry.blockedOn(T2Index.load()) != A)
          std::this_thread::yield();
        Locks.lock(B, Main); // A watchdog tick confirms the cycle.
        T2.join();           // Unreachable.
      })(),
      "deadlock: 2 thread");
}

//===----------------------------------------------------------------------===//
// Corrupted lock words fail loudly in every build mode.
//===----------------------------------------------------------------------===//

TEST(CorruptionDeathTest, MonitorTableRejectsBadIndices) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MonitorTable Table(16);
  uint32_t Allocated = Table.allocate();
  ASSERT_EQ(Allocated, 1u);

  EXPECT_DEATH(Table.get(0), "monitor index");
  EXPECT_DEATH(Table.get(17), "monitor index");       // Beyond capacity.
  EXPECT_DEATH(Table.get(5), "never allocated");      // In-range hole.
}

TEST(CorruptionDeathTest, ResolveRejectsCorruptLockWords) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MonitorTable Table(16);
  ASSERT_EQ(Table.allocate(), 1u);

  // A thin word can never name a monitor.
  EXPECT_DEATH(Table.resolve(lockword::makeThin(3, 0, 0)),
               "corrupt lock word");
  // A fat word naming a never-allocated slot is corruption, not a crash
  // into garbage memory.
  EXPECT_DEATH(Table.resolve(lockword::makeFat(9, 0)), "never allocated");
}

//===----------------------------------------------------------------------===//
// VM-level surfacing.
//===----------------------------------------------------------------------===//

TEST(VMExhaustion, SpawnTrapsWhenRegistryIsFull) {
  vm::VM Vm;
  vm::Klass &K = Vm.defineClass("Main", {});
  vm::Method &Nop = Vm.defineNativeMethod(
      K, "nop", vm::MethodTraits{}, 0, false,
      [](vm::VM &, const ThreadContext &, std::span<vm::Value>,
         vm::Value &) -> vm::Trap { return vm::Trap::None; });

  // Hog every thread index, then ask the VM for one more thread.
  std::vector<ThreadContext> Hogs;
  Hogs.reserve(ThreadRegistry::MaxThreadIndex);
  for (uint32_t I = 0; I < ThreadRegistry::MaxThreadIndex; ++I) {
    ThreadContext Ctx = Vm.threads().attach(std::string());
    ASSERT_TRUE(Ctx.isValid());
    Hogs.push_back(Ctx);
  }

  vm::RunResult Failed = Vm.spawn(Nop, {}, "doomed").join();
  EXPECT_EQ(Failed.TrapKind, vm::Trap::ThreadExhausted);
  EXPECT_GE(Vm.threads().exhaustionEvents(), 1u);

  // Releasing capacity makes spawn work again.
  Vm.threads().detach(Hogs.back());
  Hogs.pop_back();
  vm::RunResult Ok = Vm.spawn(Nop, {}, "fine").join();
  EXPECT_TRUE(Ok.ok());

  for (ThreadContext &Ctx : Hogs)
    Vm.threads().detach(Ctx);
}
