//===- tests/policy_test.cpp - Adaptive engine tests ----------------------===//
//
// Covers the AdaptivePolicyEngine: per-object idle tracking from the
// profiler's cumulative rows (first sightings seed a baseline, objects
// missing from the profile age, long-cold ones are forgotten), the
// speculative deflation scan over real heap objects (off by default,
// longest idle first with ties in tracking order, a per-tick budget,
// held and active monitors left alone, Deflate events into the
// recorder's ring), and its end-to-end effect through a real
// ThinLockManager.  ConcurrentTicksDeflateWhileThreadsLockAndWait is the
// TSan target: ticks retire monitors other threads lock, wait on and
// unlock.
//
//===----------------------------------------------------------------------===//

#include "policy/AdaptivePolicyEngine.h"

#include "core/LockStats.h"
#include "core/ThinLock.h"
#include "fatlock/MonitorTable.h"
#include "heap/Heap.h"
#include "obs/EventRing.h"
#include "obs/LockEventCollector.h"
#include "support/SplitMix64.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace thinlocks;
using namespace thinlocks::policy;

namespace {

constexpr unsigned ColdTicks = AdaptivePolicyEngine::ColdTicks;
constexpr size_t ScanLimit = AdaptivePolicyEngine::DeflateScanLimit;

/// Records one inflate/deflate round trip for \p Addr.
void recordThrash(obs::EventRing &Ring, uint64_t Addr, uint16_t Tid,
                  uint32_t ClassIndex) {
  obs::LockEvent E;
  E.Kind = obs::EventKind::Inflate;
  E.ObjectAddr = Addr;
  E.ThreadIndex = Tid;
  E.ClassIndex = ClassIndex;
  Ring.record(E);
  E.Kind = obs::EventKind::Deflate;
  Ring.record(E);
}

/// Records a contended acquire of \p Addr blocked for \p BlockedNanos.
void recordContended(obs::EventRing &Ring, uint64_t Addr, uint16_t Tid,
                     uint32_t ClassIndex, uint64_t BlockedNanos = 50'000) {
  obs::LockEvent E;
  E.Kind = obs::EventKind::ContendedAcquire;
  E.ObjectAddr = Addr;
  E.ThreadIndex = Tid;
  E.ClassIndex = ClassIndex;
  E.Arg = BlockedNanos;
  Ring.record(E);
}

/// Harness for synthetic-event engine tests: a registry, one attached
/// recorder thread, a collector, and an engine with default config
/// (speculative deflation OFF — addresses here are synthetic).
struct EngineHarness {
  ThreadRegistry Registry;
  MonitorTable Monitors;
  obs::LockEventCollector Collector;
  AdaptivePolicyEngine Engine;
  ThreadContext Me;

  EngineHarness()
      : Collector(Registry), Engine(Collector, Monitors),
        Me(Registry.attach("engine-test")) {}
  ~EngineHarness() { Registry.detach(Me); }

  obs::EventRing &ring() { return *Me.eventRing(); }
};

/// Harness over real heap objects: a ThinLockManager that never deflates
/// on its own (so a thin word proves the scan ran), tracing on so its
/// inflations reach the profiler, and an engine with speculative
/// deflation on (the heap outlives the engine).
struct HeapHarness {
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks{Monitors, &Stats, DeflationPolicy::Never};
  Heap TheHeap;
  obs::LockEventCollector Collector{Registry};
  AdaptivePolicyEngine Engine;
  ThreadContext Me;
  const ClassInfo &Cls;

  explicit HeapHarness(bool SpeculativeDeflation = true)
      : Engine(Collector, Monitors, PolicyConfig{SpeculativeDeflation}),
        Me(Registry.attach("main")),
        Cls(TheHeap.classes().registerClass("Cold", 0)) {
    obs::setTracing(true);
  }
  ~HeapHarness() {
    obs::setTracing(false);
    Registry.detach(Me);
  }

  /// Allocates \p Count objects.
  std::vector<Object *> allocate(size_t Count) {
    std::vector<Object *> Objs;
    for (size_t I = 0; I < Count; ++I)
      Objs.push_back(TheHeap.allocate(Cls));
    return Objs;
  }

  /// Inflates \p Obj while held, recording its Inflate event; the caller
  /// still holds it.
  void lockFat(Object *Obj) {
    Locks.lock(Obj, Me);
    Locks.inflate(Obj, Me);
  }

  /// Inflates \p Obj and releases it: a quiescent fat lock.
  void inflateIdle(Object *Obj) {
    lockFat(Obj);
    Locks.unlock(Obj, Me);
  }

  /// Records profiler activity for \p Obj without touching its lock.
  void touch(Object *Obj) {
    recordContended(*Me.eventRing(), reinterpret_cast<uint64_t>(Obj),
                    Me.index(), Obj->classIndex());
  }

  size_t countInflated(const std::vector<Object *> &Objs, size_t Begin,
                       size_t End) const {
    size_t N = 0;
    for (size_t I = Begin; I < End; ++I)
      N += Locks.isInflated(Objs[I]) ? 1 : 0;
    return N;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Idle tracking (synthetic profiler feed)
//===----------------------------------------------------------------------===//

TEST(AdaptiveEngineTest, DecisionCountersReadZero) {
  // Thrash, fast-release and convoy contention earn no decision: the
  // engine publishes none, and the counters perfbench still reports for
  // decisions stay at zero however long the evidence lasts.
  EngineHarness H;
  for (unsigned T = 0; T < 4 * ColdTicks; ++T) {
    recordThrash(H.ring(), 0x7000, H.Me.index(), 5);
    recordContended(H.ring(), 0x8000, H.Me.index(), 5, 1'000);
    recordContended(H.ring(), 0x9000, H.Me.index(), 5, 200'000);
    H.Engine.tick();
  }
  PolicyCounters C = H.Engine.counters();
  EXPECT_EQ(C.Ticks, 4u * ColdTicks);
  EXPECT_EQ(C.Promotions, 0u);
  EXPECT_EQ(C.Demotions, 0u);
  EXPECT_EQ(C.KeepFatDecisions, 0u);
  EXPECT_EQ(C.PublishFailures, 0u);
  EXPECT_EQ(C.ObjectsTracked, 3u);
  EXPECT_EQ(C.DeflationScans, 0u) << "the scan is off by default";
}

TEST(AdaptiveEngineTest, ColdTrackingIsDroppedAfterTwiceColdTicks) {
  EngineHarness H;
  recordContended(H.ring(), 0x7000, H.Me.index(), 5);
  // The first sighting only seeds the baseline and already counts as an
  // idle tick, so the object is forgotten on the tick that makes it
  // 2 x ColdTicks idle.
  for (unsigned T = 1; T < 2 * ColdTicks; ++T) {
    H.Engine.tick();
    EXPECT_EQ(H.Engine.counters().ObjectsTracked, 1u) << "tick " << T;
  }
  H.Engine.tick();
  EXPECT_EQ(H.Engine.counters().ObjectsTracked, 0u);

  // Fresh activity tracks it again.
  recordContended(H.ring(), 0x7000, H.Me.index(), 5);
  H.Engine.tick();
  EXPECT_EQ(H.Engine.counters().ObjectsTracked, 1u);
}

//===----------------------------------------------------------------------===//
// Speculative deflation over real heap objects
//===----------------------------------------------------------------------===//

TEST(AdaptiveEngineTest, ScanIsOffByDefault) {
  HeapHarness H(/*SpeculativeDeflation=*/false);
  Object *Obj = H.allocate(1)[0];
  H.inflateIdle(Obj);
  for (unsigned T = 0; T < 2 * ColdTicks; ++T)
    H.Engine.tick();
  EXPECT_TRUE(H.Locks.isInflated(Obj));
  EXPECT_EQ(H.Engine.counters().DeflationScans, 0u);
}

TEST(AdaptiveEngineTest, ColdAfterExactlyColdTicksIdleTicks) {
  HeapHarness H;
  Object *Obj = H.allocate(1)[0];
  H.inflateIdle(Obj);
  // The tick that first sees the Inflate event is idle tick one.
  for (unsigned T = 1; T < ColdTicks; ++T) {
    H.Engine.tick();
    EXPECT_TRUE(H.Locks.isInflated(Obj)) << "deflated at idle tick " << T;
  }
  H.Engine.tick();
  EXPECT_FALSE(H.Locks.isInflated(Obj));
  EXPECT_EQ(H.Engine.counters().SpeculativeDeflations, 1u);
}

TEST(AdaptiveEngineTest, ActiveObjectIsNotDeflated) {
  HeapHarness H;
  Object *Obj = H.allocate(1)[0];
  H.inflateIdle(Obj);
  H.Engine.tick();
  // Activity every ColdTicks - 1 ticks keeps the object short of cold.
  for (unsigned T = 0; T < 4 * ColdTicks; ++T) {
    if (T % (ColdTicks - 1) == 0)
      H.touch(Obj);
    H.Engine.tick();
  }
  EXPECT_TRUE(H.Locks.isInflated(Obj));
  EXPECT_EQ(H.Engine.counters().DeflationScans, 0u);
  // Silence makes it cold.
  for (unsigned T = 0; T < ColdTicks; ++T)
    H.Engine.tick();
  EXPECT_FALSE(H.Locks.isInflated(Obj));
}

TEST(AdaptiveEngineTest, ObjectMissingFromTheProfileAges) {
  HeapHarness H;
  Object *Obj = H.allocate(1)[0];
  H.inflateIdle(Obj);
  H.Engine.tick();
  // A collector reset drops the object's row: it is absent from every
  // later tick's table and takes an idle step on each.
  H.Collector.reset();
  for (unsigned T = 1; T < ColdTicks; ++T)
    H.Engine.tick();
  EXPECT_FALSE(H.Locks.isInflated(Obj));
  EXPECT_EQ(H.Engine.counters().SpeculativeDeflations, 1u);
}

TEST(AdaptiveEngineTest, HeldMonitorIsExaminedAgainWhenColdAgain) {
  HeapHarness H;
  Object *Obj = H.allocate(1)[0];
  H.lockFat(Obj);
  for (unsigned T = 0; T < ColdTicks; ++T)
    H.Engine.tick();
  // Cold but held: the scan examined it once and left it alone.
  EXPECT_TRUE(H.Locks.isInflated(Obj));
  EXPECT_EQ(H.Locks.lockDepth(Obj, H.Me), 1u);
  PolicyCounters C = H.Engine.counters();
  EXPECT_EQ(C.DeflationScans, 1u);
  EXPECT_EQ(C.SpeculativeDeflations, 0u);

  // An examined object is tracked afresh from the next tick on, so the
  // released monitor waits until it is cold again.
  H.Locks.unlock(Obj, H.Me);
  for (unsigned T = 1; T < ColdTicks; ++T) {
    H.Engine.tick();
    EXPECT_TRUE(H.Locks.isInflated(Obj)) << "tick " << T;
  }
  EXPECT_EQ(H.Engine.counters().DeflationScans, 1u);
  H.Engine.tick();
  EXPECT_FALSE(H.Locks.isInflated(Obj));
  C = H.Engine.counters();
  EXPECT_EQ(C.DeflationScans, 2u);
  EXPECT_EQ(C.SpeculativeDeflations, 1u);
}

TEST(AdaptiveEngineTest, DeflateScanRetiresLongestIdleFirst) {
  // Two cohorts of 40 quiescent fat objects, first seen one tick apart.
  // The older cohort turns cold first and overruns that tick's budget of
  // 32, so on the next tick its 8 leftovers (idle 9 ticks) and the whole
  // younger cohort (idle 8) are cold together: the budget must finish
  // the older cohort before it starts on the younger one.
  HeapHarness H;
  constexpr size_t Cohort = 40;
  std::vector<Object *> Objs = H.allocate(2 * Cohort);
  for (size_t I = 0; I < Cohort; ++I)
    H.inflateIdle(Objs[I]);
  H.Engine.tick();
  for (size_t I = Cohort; I < 2 * Cohort; ++I)
    H.inflateIdle(Objs[I]);
  for (unsigned T = 1; T < ColdTicks; ++T)
    H.Engine.tick();
  ASSERT_EQ(H.Engine.counters().SpeculativeDeflations, ScanLimit);
  ASSERT_EQ(H.countInflated(Objs, 0, Cohort), Cohort - ScanLimit);
  ASSERT_EQ(H.countInflated(Objs, Cohort, 2 * Cohort), Cohort);

  H.Engine.tick();
  EXPECT_EQ(H.Engine.counters().SpeculativeDeflations, 2 * ScanLimit);
  EXPECT_EQ(H.countInflated(Objs, 0, Cohort), 0u)
      << "a longest-idle object was left for a later tick";
  EXPECT_EQ(H.countInflated(Objs, Cohort, 2 * Cohort),
            Cohort - (ScanLimit - (Cohort - ScanLimit)))
      << "the scan retired a shorter-idle object first";

  // The next tick retires the rest.
  H.Engine.tick();
  EXPECT_EQ(H.countInflated(Objs, 0, Objs.size()), 0u);
  EXPECT_EQ(H.Engine.counters().SpeculativeDeflations, Objs.size());
}

TEST(AdaptiveEngineTest, DeflateScanBreaksIdleTiesByTrackingOrder) {
  // Early objects are first seen at tick one and active again at tick
  // two; late ones are first seen at tick three.  A first sighting
  // counts as an idle tick, so both become cold together at the same
  // idle length — and the budget goes to the object tracked first.
  HeapHarness H;
  std::vector<Object *> Objs = H.allocate(ScanLimit + 1);
  const size_t Early = 17;
  for (size_t I = 0; I < Early; ++I)
    H.inflateIdle(Objs[I]);
  H.Engine.tick();
  for (size_t I = 0; I < Early; ++I)
    H.touch(Objs[I]);
  H.Engine.tick();
  for (size_t I = Early; I < Objs.size(); ++I)
    H.inflateIdle(Objs[I]);
  for (unsigned T = 0; T < ColdTicks; ++T) {
    ASSERT_EQ(H.Engine.counters().SpeculativeDeflations, 0u);
    H.Engine.tick();
  }
  EXPECT_EQ(H.Engine.counters().SpeculativeDeflations, ScanLimit);
  EXPECT_EQ(H.countInflated(Objs, 0, Early), 0u)
      << "an object tracked first lost a tie to a later one";
  EXPECT_EQ(H.countInflated(Objs, Early, Objs.size()), 1u);
}

TEST(AdaptiveEngineTest, DeflateScanBudgetCarriesOverToTheNextTick) {
  HeapHarness H;
  std::vector<Object *> Objs = H.allocate(ScanLimit + 8);
  for (Object *Obj : Objs)
    H.inflateIdle(Obj);
  for (unsigned T = 0; T < ColdTicks; ++T)
    H.Engine.tick();
  PolicyCounters C = H.Engine.counters();
  EXPECT_EQ(C.DeflationScans, ScanLimit);
  EXPECT_EQ(C.SpeculativeDeflations, ScanLimit);
  EXPECT_EQ(H.countInflated(Objs, 0, Objs.size()), 8u);
  H.Engine.tick();
  C = H.Engine.counters();
  EXPECT_EQ(C.DeflationScans, Objs.size());
  EXPECT_EQ(C.SpeculativeDeflations, Objs.size());
  EXPECT_EQ(H.countInflated(Objs, 0, Objs.size()), 0u);
}

TEST(AdaptiveEngineTest, ScanDeflationLandsInTheRecorderRing) {
  HeapHarness H;
  Object *Obj = H.allocate(1)[0];
  H.inflateIdle(Obj);
  for (unsigned T = 0; T < ColdTicks; ++T)
    H.Engine.tick(&H.Me);
  ASSERT_FALSE(H.Locks.isInflated(Obj));
  // The scan's Deflate event (Extra 1: speculative) is in the timeline
  // and in the object's profile row.
  H.Collector.drain();
  size_t Deflates = 0;
  for (const obs::LockEvent &E : H.Collector.events())
    if (E.Kind == obs::EventKind::Deflate &&
        E.ObjectAddr == reinterpret_cast<uint64_t>(Obj) && E.Extra == 1)
      ++Deflates;
  EXPECT_EQ(Deflates, 1u);
  std::vector<obs::HotLockEntry> Top = H.Collector.topLocks(1);
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0].Deflations, 1u);
}

TEST(AdaptiveEngineTest, ConcurrentTicksDeflateWhileThreadsLockAndWait) {
  // TSan target for the scan's race with the lock paths: a ticker retires
  // cold monitors while workers lock, wait on (which inflates) and unlock
  // the same objects, each burst on a window of objects the others have
  // left idle.  Mutual exclusion must hold throughout, and once the
  // workers stop the scan returns every object to thin.
  HeapHarness H;
  constexpr size_t NumObjects = 48;
  constexpr unsigned Workers = 3, Bursts = 24, OpsPerBurst = 64;
  std::vector<Object *> Objs = H.allocate(NumObjects);
  std::vector<uint64_t> Counts(NumObjects, 0); // Guarded by Objs[I].
  std::atomic<bool> Stop{false};
  std::thread Ticker([&H, &Stop] {
    ScopedThreadAttachment Attach(H.Registry, "ticker");
    while (!Stop.load(std::memory_order_acquire)) {
      H.Engine.tick(&Attach.context());
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < Workers; ++W) {
    Threads.emplace_back([&H, &Objs, &Counts, W] {
      ScopedThreadAttachment Attach(H.Registry);
      const ThreadContext &Me = Attach.context();
      SplitMix64 Rng(W + 1);
      for (unsigned B = 0; B < Bursts; ++B) {
        size_t Window = (B * Workers + W) % (NumObjects / 8);
        for (unsigned I = 0; I < OpsPerBurst; ++I) {
          size_t Index = Window * 8 + Rng.nextBounded(8);
          Object *Obj = Objs[Index];
          H.Locks.lock(Obj, Me);
          ++Counts[Index];
          if (I % 16 == 0)
            H.Locks.wait(Obj, Me, /*TimeoutNanos=*/1'000);
          H.Locks.unlock(Obj, Me);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  Stop.store(true, std::memory_order_release);
  Ticker.join();

  uint64_t Total = 0;
  for (size_t I = 0; I < NumObjects; ++I) {
    H.Locks.lock(Objs[I], H.Me);
    Total += Counts[I];
    H.Locks.unlock(Objs[I], H.Me);
  }
  EXPECT_EQ(Total, uint64_t{Workers} * Bursts * OpsPerBurst);
  // Every object the workers inflated is cold within ColdTicks more
  // ticks, and the scan examines each cold object once: two more ticks'
  // budgets cover all of them.
  for (unsigned T = 0; T < 2 * ColdTicks; ++T)
    H.Engine.tick();
  EXPECT_EQ(H.countInflated(Objs, 0, NumObjects), 0u);
  EXPECT_GT(H.Engine.counters().SpeculativeDeflations, 0u);
}

//===----------------------------------------------------------------------===//
// End-to-end through ThinLockManager
//===----------------------------------------------------------------------===//

namespace {

/// Inflates \p Obj via nested-count overflow on the calling thread: the
/// deterministic single-threaded inflation path.
void inflateByOverflow(ThinLockManager &Locks, Object *Obj,
                       const ThreadContext &Me) {
  for (int I = 0; I < 257; ++I)
    Locks.lock(Obj, Me);
  for (int I = 0; I < 257; ++I)
    Locks.unlock(Obj, Me);
}

} // namespace

TEST(PolicyE2ETest, SpeculativeDeflationRetiresColdMonitor) {
  obs::setTracing(true);
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  // DeflationPolicy::Never: the engine's speculative scan is the only
  // deflator in this test, so a thin word afterwards proves it ran.
  ThinLockManager Locks(Monitors, &Stats, DeflationPolicy::Never);
  Heap TheHeap;
  obs::LockEventCollector Collector(Registry);
  PolicyConfig Cfg;
  Cfg.SpeculativeDeflation = true; // Heap outlives the engine here.
  AdaptivePolicyEngine Engine(Collector, Monitors, Cfg);
  const ClassInfo &Cls = TheHeap.classes().registerClass("ColdFat", 0);
  Object *Obj = TheHeap.allocate(Cls);

  ThreadContext Me = Registry.attach("main");
  inflateByOverflow(Locks, Obj, Me);
  ASSERT_TRUE(Locks.isInflated(Obj));

  // The Inflate event lands in the profiler on the first tick; from
  // then on the object is idle.  After ColdTicks idle ticks the scan
  // must retire the quiescent monitor and restore a thin word.
  for (unsigned T = 0; T <= AdaptivePolicyEngine::ColdTicks + 1; ++T)
    Engine.tick();
  EXPECT_FALSE(Locks.isInflated(Obj));
  PolicyCounters C = Engine.counters();
  EXPECT_EQ(C.SpeculativeDeflations, 1u);
  EXPECT_GT(C.DeflationScans, 0u);
  EXPECT_EQ(Monitors.retirementEvents(), 1u);

  // The deflated object locks thin again.
  Locks.lock(Obj, Me);
  EXPECT_FALSE(Locks.isInflated(Obj));
  Locks.unlock(Obj, Me);
  Registry.detach(Me);
  obs::setTracing(false);
}

TEST(PolicyE2ETest, SpeculativeDeflationReturnsTheNextLockToTheFastPath) {
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks(Monitors, &Stats, DeflationPolicy::Never);
  Heap TheHeap;
  obs::LockEventCollector Collector(Registry);
  PolicyConfig Cfg;
  Cfg.SpeculativeDeflation = true; // Heap outlives the engine here.
  AdaptivePolicyEngine Engine(Collector, Monitors, Cfg);
  const ClassInfo &Cls = TheHeap.classes().registerClass("FastAgain", 0);
  Object *Obj = TheHeap.allocate(Cls);
  const uint32_t Header = Obj->headerBits();

  obs::setTracing(true);
  ThreadContext Me = Registry.attach("main");
  inflateByOverflow(Locks, Obj, Me);
  ASSERT_TRUE(Locks.isInflated(Obj));
  for (unsigned T = 0; T <= AdaptivePolicyEngine::ColdTicks + 1; ++T)
    Engine.tick();
  obs::setTracing(false);
  ASSERT_EQ(Engine.counters().SpeculativeDeflations, 1u);

  // The scan's deflation left the word thin, unlocked and with its
  // header bits, so the next acquisition is the paper's one CAS.
  EXPECT_EQ(Obj->lockWord().load(), Header);
  uint64_t FastBefore = Stats.snapshot().FastPath;
  Locks.lock(Obj, Me);
  EXPECT_EQ(Stats.snapshot().FastPath, FastBefore + 1);
  EXPECT_EQ(Locks.lockDepth(Obj, Me), 1u);
  Locks.unlock(Obj, Me);
  Registry.detach(Me);
}
