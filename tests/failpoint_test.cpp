//===- tests/failpoint_test.cpp - Fault-injection facility tests ----------===//
//
// Two layers, mirroring support/FailPoint.h:
//
//  - Control-plane tests (arming, mode arithmetic, spec parsing, counters)
//    run in every build: the registry is always compiled.
//  - Injection tests need the sites compiled in (-DTHINLOCKS_FAILPOINTS=ON)
//    and GTEST_SKIP themselves otherwise.  Each one demonstrates that the
//    injected fault *recovers* — a lost CAS still acquires via the slow
//    path, injected exhaustion degrades to the emergency monitor or a
//    typed error — never a hang or a crash.
//
//===----------------------------------------------------------------------===//

#include "baselines/HotLocks.h"
#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "support/FailPoint.h"
#include "support/SpinWait.h"
#include "threads/ThreadRegistry.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace thinlocks;
namespace fp = thinlocks::failpoint;

namespace {

/// All failpoint tests disarm everything on both sides so no armed state
/// leaks between tests (or out of an env-armed run into assertions about
/// disarmed behavior).
class FailPointTest : public ::testing::Test {
protected:
  void SetUp() override { fp::disarmAll(); }
  void TearDown() override { fp::disarmAll(); }
};

/// Adds a live locking stack for the injection tests.
class FailPointLockTest : public FailPointTest {
protected:
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks{Monitors, &Stats};
  ThreadContext Main;
  const ClassInfo *Class = nullptr;

  void SetUp() override {
    FailPointTest::SetUp();
    Main = Registry.attach("main");
    Class = &TheHeap.classes().registerClass("T", 1);
  }
  void TearDown() override {
    Registry.detach(Main);
    FailPointTest::TearDown();
  }

  Object *newObject() { return TheHeap.allocate(*Class); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Control plane: compiled in every build mode.
//===----------------------------------------------------------------------===//

TEST_F(FailPointTest, NamesAreStableAndRoundTripThroughSpecs) {
  // These strings are external API (env specs, docs); changing one is a
  // breaking change and must show up here.
  EXPECT_STREQ(fp::name(fp::Id::ThinLockInitialCas), "thinlock.initial-cas");
  EXPECT_STREQ(fp::name(fp::Id::SpinWaitPreempt), "spinwait.preempt");
  EXPECT_STREQ(fp::name(fp::Id::ThinLockInflateRace),
               "thinlock.inflate-race");
  EXPECT_STREQ(fp::name(fp::Id::MonitorTableExhausted),
               "monitortable.exhausted");
  EXPECT_STREQ(fp::name(fp::Id::ThreadRegistryExhausted),
               "threadregistry.exhausted");

  for (unsigned I = 0; I < fp::NumIds; ++I) {
    fp::Id Id = static_cast<fp::Id>(I);
    std::string Error;
    EXPECT_TRUE(fp::armFromSpec(std::string(fp::name(Id)) + "=always",
                                &Error))
        << Error;
    EXPECT_TRUE(fp::evaluate(Id)) << fp::name(Id);
  }
}

TEST_F(FailPointTest, AlwaysFiresEveryEvaluation) {
  fp::arm(fp::Id::ThinLockInitialCas, fp::Mode::Always);
  for (int I = 0; I < 5; ++I)
    EXPECT_TRUE(fp::evaluate(fp::Id::ThinLockInitialCas));
  EXPECT_EQ(fp::hitCount(fp::Id::ThinLockInitialCas), 5u);
  EXPECT_EQ(fp::evalCount(fp::Id::ThinLockInitialCas), 5u);
}

TEST_F(FailPointTest, TimesFiresExactlyFirstN) {
  fp::arm(fp::Id::SpinWaitPreempt, fp::Mode::Times, 3);
  int Fired = 0;
  for (int I = 0; I < 10; ++I)
    if (fp::evaluate(fp::Id::SpinWaitPreempt))
      ++Fired;
  EXPECT_EQ(Fired, 3);
  EXPECT_EQ(fp::hitCount(fp::Id::SpinWaitPreempt), 3u);
  EXPECT_EQ(fp::evalCount(fp::Id::SpinWaitPreempt), 10u);
}

TEST_F(FailPointTest, OneInFiresEveryNth) {
  fp::arm(fp::Id::MonitorTableExhausted, fp::Mode::OneIn, 4);
  std::vector<bool> Fired;
  for (int I = 0; I < 8; ++I)
    Fired.push_back(fp::evaluate(fp::Id::MonitorTableExhausted));
  // Fires on the 4th and 8th evaluation.
  std::vector<bool> Expected{false, false, false, true,
                             false, false, false, true};
  EXPECT_EQ(Fired, Expected);
  EXPECT_EQ(fp::hitCount(fp::Id::MonitorTableExhausted), 2u);
}

TEST_F(FailPointTest, DisarmStopsFiringAndClearsArmedMask) {
  fp::arm(fp::Id::ThinLockInitialCas, fp::Mode::Always);
  EXPECT_NE(fp::ArmedMask.load(), 0u);
  EXPECT_TRUE(fp::evaluate(fp::Id::ThinLockInitialCas));

  fp::disarm(fp::Id::ThinLockInitialCas);
  EXPECT_EQ(fp::ArmedMask.load(), 0u);
  EXPECT_FALSE(fp::evaluate(fp::Id::ThinLockInitialCas));
}

TEST_F(FailPointTest, SpecParsesMultipleEntriesAndModes) {
  std::string Error;
  ASSERT_TRUE(fp::armFromSpec("thinlock.initial-cas=always,"
                              "spinwait.preempt=times:2,"
                              "monitortable.exhausted=oneIn:3",
                              &Error))
      << Error;
  EXPECT_TRUE(fp::evaluate(fp::Id::ThinLockInitialCas));
  EXPECT_TRUE(fp::evaluate(fp::Id::SpinWaitPreempt));
  EXPECT_TRUE(fp::evaluate(fp::Id::SpinWaitPreempt));
  EXPECT_FALSE(fp::evaluate(fp::Id::SpinWaitPreempt));
  EXPECT_FALSE(fp::evaluate(fp::Id::MonitorTableExhausted));
  EXPECT_FALSE(fp::evaluate(fp::Id::MonitorTableExhausted));
  EXPECT_TRUE(fp::evaluate(fp::Id::MonitorTableExhausted));
}

TEST_F(FailPointTest, SpecOffEntryDisarms) {
  fp::arm(fp::Id::SpinWaitPreempt, fp::Mode::Always);
  std::string Error;
  ASSERT_TRUE(fp::armFromSpec("spinwait.preempt=off", &Error)) << Error;
  EXPECT_FALSE(fp::evaluate(fp::Id::SpinWaitPreempt));
}

TEST_F(FailPointTest, MalformedSpecsReportErrors) {
  std::string Error;
  EXPECT_FALSE(fp::armFromSpec("thinlock.initial-cas", &Error));
  EXPECT_FALSE(Error.empty());

  EXPECT_FALSE(fp::armFromSpec("no.such.failpoint=always", &Error));
  EXPECT_FALSE(Error.empty());

  EXPECT_FALSE(fp::armFromSpec("thinlock.initial-cas=sometimes", &Error));
  EXPECT_FALSE(Error.empty());

  EXPECT_FALSE(fp::armFromSpec("spinwait.preempt=times:banana", &Error));
  EXPECT_FALSE(Error.empty());

  // Null Error pointer must be tolerated.
  EXPECT_FALSE(fp::armFromSpec("garbage"));
}

TEST_F(FailPointTest, ValidPrefixOfPartlyMalformedSpecStillApplies) {
  std::string Error;
  EXPECT_FALSE(
      fp::armFromSpec("thinlock.initial-cas=always,bogus=always", &Error));
  EXPECT_TRUE(fp::evaluate(fp::Id::ThinLockInitialCas));
}

TEST_F(FailPointTest, CollectAppliesValidClausesAroundBadOnes) {
  // armFromSpecCollect is the startup-hardening variant behind
  // THINLOCKS_FAILPOINTS env parsing: it applies every valid clause and
  // reports *all* bad ones (armFromSpec stops at the first), so the
  // fatal startup diagnostic can list everything wrong with the spec.
  std::vector<std::string> Errors;
  size_t Applied = fp::armFromSpecCollect(
      "thinlock.initial-cas=always,bogus=always,"
      "spinwait.preempt=sometimes,monitortable.exhausted=times:2",
      &Errors);
  EXPECT_EQ(Applied, 2u);
  ASSERT_EQ(Errors.size(), 2u);
  EXPECT_NE(Errors[0].find("bogus"), std::string::npos);
  EXPECT_NE(Errors[1].find("sometimes"), std::string::npos);
  // The valid clauses on either side of the bad ones took effect.
  EXPECT_TRUE(fp::evaluate(fp::Id::ThinLockInitialCas));
  EXPECT_TRUE(fp::evaluate(fp::Id::MonitorTableExhausted));
  EXPECT_TRUE(fp::evaluate(fp::Id::MonitorTableExhausted));
  EXPECT_FALSE(fp::evaluate(fp::Id::MonitorTableExhausted));
  // The misspelled-mode clause must not have armed its (valid) point.
  EXPECT_FALSE(fp::evaluate(fp::Id::SpinWaitPreempt));
}

TEST_F(FailPointTest, CollectCleanSpecReportsNoErrors) {
  std::vector<std::string> Errors;
  size_t Applied =
      fp::armFromSpecCollect("park.spurious=oneIn:2,spinwait.preempt=off",
                             &Errors);
  EXPECT_EQ(Applied, 2u);
  EXPECT_TRUE(Errors.empty());
}

TEST_F(FailPointTest, CollectToleratesNullErrorsAndEmptySpec) {
  EXPECT_EQ(fp::armFromSpecCollect("", nullptr), 0u);
  EXPECT_EQ(fp::armFromSpecCollect("garbage", nullptr), 0u);
  EXPECT_EQ(fp::armFromSpecCollect("thinlock.initial-cas=always", nullptr),
            1u);
  EXPECT_TRUE(fp::evaluate(fp::Id::ThinLockInitialCas));
}

//===----------------------------------------------------------------------===//
// Injection: sites must be compiled in.
//===----------------------------------------------------------------------===//

TEST_F(FailPointLockTest, SitesAreDeadWhenCompiledOut) {
  if (fp::compiledIn())
    GTEST_SKIP() << "sites are compiled in; this test covers OFF builds";
  // Arming is legal but nothing may fire: the sites constant-fold away.
  fp::arm(fp::Id::ThinLockInitialCas, fp::Mode::Always);
  Object *Obj = newObject();
  Locks.lock(Obj, Main);
  EXPECT_TRUE(lockword::isThin(Obj->lockWord().load()));
  EXPECT_TRUE(Locks.holdsLock(Obj, Main));
  Locks.unlock(Obj, Main);
  EXPECT_EQ(fp::evalCount(fp::Id::ThinLockInitialCas), 0u);
  EXPECT_EQ(fp::hitCount(fp::Id::ThinLockInitialCas), 0u);
}

TEST_F(FailPointLockTest, InitialCasFailureRecoversViaSlowPath) {
  if (!fp::compiledIn())
    GTEST_SKIP() << "requires -DTHINLOCKS_FAILPOINTS=ON";
  fp::arm(fp::Id::ThinLockInitialCas, fp::Mode::Always);

  Object *Obj = newObject();
  // The injected CAS failure behaves exactly like losing the initial
  // race: lock() falls into lockSlow, wins the unlocked word there, and
  // — indistinguishable from real contention — inflates per §2.3.4.
  // The essential property is recovery: the acquisition still succeeds.
  Locks.lock(Obj, Main);
  EXPECT_TRUE(Locks.holdsLock(Obj, Main));
  EXPECT_GE(fp::hitCount(fp::Id::ThinLockInitialCas), 1u);
  EXPECT_TRUE(Locks.isInflated(Obj));
  EXPECT_EQ(Stats.contentionInflations(), 1u);
  Locks.unlock(Obj, Main);
  EXPECT_FALSE(Locks.holdsLock(Obj, Main));

  // Disarmed, the fast path is back and fresh objects stay thin.
  fp::disarm(fp::Id::ThinLockInitialCas);
  uint64_t FastBefore = Stats.fastPathAcquisitions();
  Object *Obj2 = newObject();
  Locks.lock(Obj2, Main);
  EXPECT_EQ(Stats.fastPathAcquisitions(), FastBefore + 1);
  EXPECT_FALSE(Locks.isInflated(Obj2));
  Locks.unlock(Obj2, Main);
}

TEST_F(FailPointLockTest, SpinWaitPreemptInjectsDelayedYields) {
  if (!fp::compiledIn())
    GTEST_SKIP() << "requires -DTHINLOCKS_FAILPOINTS=ON";
  fp::arm(fp::Id::SpinWaitPreempt, fp::Mode::Times, 3);

  SpinWait Spinner{SpinPolicy()};
  for (int I = 0; I < 8; ++I)
    Spinner.spinOnce();
  EXPECT_EQ(fp::hitCount(fp::Id::SpinWaitPreempt), 3u);
  // Each injected preemption is accounted as a yield.
  EXPECT_GE(Spinner.totalYields(), 3u);
}

TEST_F(FailPointLockTest, InflateRaceWindowStillHandsOffToContender) {
  if (!fp::compiledIn())
    GTEST_SKIP() << "requires -DTHINLOCKS_FAILPOINTS=ON";
  fp::arm(fp::Id::ThinLockInflateRace, fp::Mode::Always);

  Object *Obj = newObject();
  Locks.lock(Obj, Main);

  // The contender can only acquire through lockSlow, which inflates on
  // success; the armed failpoint widens the held-but-still-thin publish
  // window inside that inflation.
  std::thread Contender([&] {
    ScopedThreadAttachment Attachment(Registry, "contender");
    Locks.lock(Obj, Attachment.context());
    Locks.unlock(Obj, Attachment.context());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Locks.unlock(Obj, Main);
  Contender.join();

  EXPECT_TRUE(Locks.isInflated(Obj));
  EXPECT_GE(fp::hitCount(fp::Id::ThinLockInflateRace), 1u);
  // The monitor handed back cleanly: we can take it again.
  Locks.lock(Obj, Main);
  EXPECT_TRUE(Locks.holdsLock(Obj, Main));
  Locks.unlock(Obj, Main);
}

TEST_F(FailPointLockTest, InjectedMonitorTableExhaustionFailsAllocate) {
  if (!fp::compiledIn())
    GTEST_SKIP() << "requires -DTHINLOCKS_FAILPOINTS=ON";
  MonitorTable Table(64);
  fp::arm(fp::Id::MonitorTableExhausted, fp::Mode::Always);
  EXPECT_EQ(Table.allocate(), 0u);
  EXPECT_EQ(Table.exhaustionEvents(), 1u);

  fp::disarm(fp::Id::MonitorTableExhausted);
  EXPECT_NE(Table.allocate(), 0u);
}

TEST_F(FailPointLockTest, InjectedExhaustionDegradesToEmergencyMonitor) {
  if (!fp::compiledIn())
    GTEST_SKIP() << "requires -DTHINLOCKS_FAILPOINTS=ON";
  fp::arm(fp::Id::MonitorTableExhausted, fp::Mode::Always);

  // wait() forces inflation; with allocate() failing, the lock lands on
  // the shared emergency monitor and keeps full monitor semantics.
  Object *Obj = newObject();
  Locks.lock(Obj, Main);
  EXPECT_EQ(Locks.wait(Obj, Main, 1'000'000), WaitStatus::TimedOut);
  EXPECT_TRUE(Locks.isInflated(Obj));
  EXPECT_EQ(lockword::monitorIndexOf(Obj->lockWord().load()),
            Monitors.emergencyIndex());
  EXPECT_EQ(Stats.emergencyInflations(), 1u);
  EXPECT_TRUE(Locks.holdsLock(Obj, Main));
  EXPECT_EQ(Locks.lockDepth(Obj, Main), 1u);
  Locks.unlock(Obj, Main);
  EXPECT_FALSE(Locks.holdsLock(Obj, Main));
}

TEST_F(FailPointLockTest, InjectedRegistryExhaustionReturnsTypedError) {
  if (!fp::compiledIn())
    GTEST_SKIP() << "requires -DTHINLOCKS_FAILPOINTS=ON";
  ThreadRegistry Fresh;
  fp::arm(fp::Id::ThreadRegistryExhausted, fp::Mode::Always);

  AttachError Error = AttachError::None;
  ThreadContext Ctx = Fresh.attach("doomed", &Error);
  EXPECT_FALSE(Ctx.isValid());
  EXPECT_EQ(Error, AttachError::Exhausted);
  EXPECT_EQ(Fresh.exhaustionEvents(), 1u);

  fp::disarm(fp::Id::ThreadRegistryExhausted);
  ThreadContext Ok = Fresh.attach("fine", &Error);
  EXPECT_TRUE(Ok.isValid());
  EXPECT_EQ(Error, AttachError::None);
  Fresh.detach(Ok);
}

TEST_F(FailPointLockTest, HotLocksPromotionRacingColdLookupKeepsOneMonitor) {
  if (!fp::compiledIn())
    GTEST_SKIP() << "requires -DTHINLOCKS_FAILPOINTS=ON";
  // IBM112's first side-table invariant (DESIGN.md §14): the hot word is
  // re-read under the cache mutex.  A lock parked between the lock-free
  // hot check and the cache mutex while another thread promotes the
  // object must take the hot monitor, not a second one from the cache.
  HotLocks Hot;
  Object *Obj = newObject();
  fp::arm(fp::Id::HotLocksPromoteRace, fp::Mode::Times, 1);

  std::atomic<bool> Holding{false};
  std::atomic<bool> Release{false};
  std::thread Parked([&] {
    ScopedThreadAttachment Attachment(Registry, "parked");
    Hot.lock(Obj, Attachment.context()); // The one evaluation that fires.
    Holding.store(true, std::memory_order_release);
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::yield();
    // Through the hot word, the release reaches the monitor it holds
    // only if the lock took the hot one.
    EXPECT_TRUE(Hot.unlockChecked(Obj, Attachment.context()));
  });
  while (fp::hitCount(fp::Id::HotLocksPromoteRace) == 0)
    std::this_thread::yield();

  // Promote inside the window: each use counts toward the threshold,
  // and the idle mapping goes hot at the threshold.
  for (int I = 0; I < 8 && !Hot.isHot(Obj); ++I)
    if (Hot.tryLock(Obj, Main))
      Hot.unlock(Obj, Main);
  bool Promoted = Hot.isHot(Obj);
  bool WindowStillOpen = !Holding.load(std::memory_order_acquire);
  while (!Holding.load(std::memory_order_acquire))
    std::this_thread::yield();

  // The parked thread now holds the object's lock.  The object's only
  // monitor is the hot one, so taking it must fail.
  bool Stolen = Hot.tryLock(Obj, Main);
  if (Stolen)
    Hot.unlock(Obj, Main);
  Release.store(true, std::memory_order_release);
  Parked.join();

  EXPECT_TRUE(Promoted);
  EXPECT_TRUE(WindowStillOpen) << "the parked lock left the window early";
  EXPECT_FALSE(Stolen) << "the parked lock took a second monitor";
  EXPECT_EQ(fp::hitCount(fp::Id::HotLocksPromoteRace), 1u);
}

TEST_F(FailPointTest, VMSpawnSurfacesThreadExhaustedTrap) {
  if (!fp::compiledIn())
    GTEST_SKIP() << "requires -DTHINLOCKS_FAILPOINTS=ON";
  vm::VM Vm;
  vm::Klass &K = Vm.defineClass("Main", {});
  vm::Method &Nop = Vm.defineNativeMethod(
      K, "nop", vm::MethodTraits{}, 0, false,
      [](vm::VM &, const ThreadContext &, std::span<vm::Value>,
         vm::Value &) -> vm::Trap { return vm::Trap::None; });

  fp::arm(fp::Id::ThreadRegistryExhausted, fp::Mode::Always);
  vm::RunResult Failed = Vm.spawn(Nop, {}, "doomed").join();
  EXPECT_EQ(Failed.TrapKind, vm::Trap::ThreadExhausted);
  EXPECT_FALSE(Failed.ok());

  fp::disarm(fp::Id::ThreadRegistryExhausted);
  vm::RunResult Ok = Vm.spawn(Nop, {}, "fine").join();
  EXPECT_TRUE(Ok.ok());
}
