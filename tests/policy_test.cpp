//===- tests/policy_test.cpp - Adaptive policy engine tests ---------------===//
//
// Covers the policy layer bottom-up: LockPolicy packing, the
// DecisionTable's probe/tombstone/capacity behavior, PolicyStore
// object-over-class precedence, the AdaptivePolicyEngine's dwell
// hysteresis (no oscillation across churn at the classification
// boundary), cold expiry and re-tracking, class-level rollup decisions,
// and the end-to-end levers through a real ThinLockManager: KeepFat
// suppressing quiescent retirement, EagerInflate on the timed-acquire
// path, the slow-path-only invariant, and speculative deflation of a
// cold inflated object.  One engine test runs over a profile far
// larger than the engine's top-N.  The concurrent stress tests are the
// TSan targets for the wait-free-reader claims.
//
//===----------------------------------------------------------------------===//

#include "policy/AdaptivePolicyEngine.h"
#include "policy/DecisionTable.h"
#include "policy/LockPolicy.h"
#include "policy/PolicyStore.h"

#include "core/LockStats.h"
#include "core/ThinLock.h"
#include "fatlock/MonitorTable.h"
#include "heap/Heap.h"
#include "obs/EventRing.h"
#include "obs/LockEventCollector.h"
#include "support/SpinWait.h"
#include "support/SplitMix64.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace thinlocks;
using namespace thinlocks::policy;

namespace {

LockPolicy keepFatPolicy() {
  LockPolicy P;
  P.KeepFat = true;
  P.EagerInflate = true;
  return P;
}

/// Records one inflate/deflate round trip for \p Addr — the per-tick
/// thrash signature (delta >= ReinflateThreshold).
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

/// Records a contended acquire blocked for \p BlockedNanos.  The
/// default, 50us, lies between FastRelease (5us) and Convoy (100us):
/// the classifier's dead zone (no spin-class vote either way).
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

} // namespace

//===----------------------------------------------------------------------===//
// LockPolicy packing
//===----------------------------------------------------------------------===//

TEST(LockPolicyTest, DefaultPacksToZero) {
  LockPolicy P;
  EXPECT_TRUE(P.isDefault());
  EXPECT_EQ(P.pack(), 0u);
  EXPECT_EQ(LockPolicy::unpack(0), LockPolicy());
}

TEST(LockPolicyTest, PackUnpackRoundTripsEveryCombination) {
  for (unsigned Spin = 0; Spin <= 2; ++Spin)
    for (unsigned Eager = 0; Eager <= 1; ++Eager)
      for (unsigned Fat = 0; Fat <= 1; ++Fat) {
        LockPolicy P;
        P.Spin = static_cast<SpinClass>(Spin);
        P.EagerInflate = Eager != 0;
        P.KeepFat = Fat != 0;
        LockPolicy Q = LockPolicy::unpack(P.pack());
        EXPECT_EQ(P, Q);
        EXPECT_EQ(P.isDefault(), P.pack() == 0u);
      }
}

TEST(LockPolicyTest, SpinPolicyForSelectsLadder) {
  SpinPolicy Fallback = DefaultSpinPolicy;
  EXPECT_EQ(spinPolicyFor(SpinClass::Deep, Fallback).MaxPausesPerRound,
            DeepSpinPolicy.MaxPausesPerRound);
  EXPECT_EQ(spinPolicyFor(SpinClass::Deep, Fallback).ParkThresholdRound,
            DeepSpinPolicy.ParkThresholdRound);
  EXPECT_EQ(spinPolicyFor(SpinClass::ParkEarly, Fallback).ParkThresholdRound,
            ParkEarlySpinPolicy.ParkThresholdRound);
  EXPECT_EQ(spinPolicyFor(SpinClass::ParkEarly, Fallback).YieldThresholdRound,
            ParkEarlySpinPolicy.YieldThresholdRound);
  EXPECT_EQ(spinPolicyFor(SpinClass::Default, Fallback).MaxPausesPerRound,
            Fallback.MaxPausesPerRound);
  // ParkEarly gives up on spinning earlier than the default ladder does.
  EXPECT_LT(ParkEarlySpinPolicy.ParkThresholdRound,
            DefaultSpinPolicy.ParkThresholdRound);
  EXPECT_GT(DeepSpinPolicy.ParkThresholdRound,
            DefaultSpinPolicy.ParkThresholdRound);
}

//===----------------------------------------------------------------------===//
// DecisionTable
//===----------------------------------------------------------------------===//

TEST(DecisionTableTest, LookupMissesReturnZero) {
  DecisionTable Table;
  EXPECT_EQ(Table.lookup(0x1234), 0u);
  EXPECT_EQ(Table.size(), 0u);
}

TEST(DecisionTableTest, PublishInsertsAndUpdatesInPlace) {
  DecisionTable Table;
  EXPECT_TRUE(Table.publish(0x1000, 0x3));
  EXPECT_EQ(Table.lookup(0x1000), 0x3u);
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_TRUE(Table.publish(0x1000, 0xC));
  EXPECT_EQ(Table.lookup(0x1000), 0xCu);
  EXPECT_EQ(Table.size(), 1u); // Update, not insert.
}

TEST(DecisionTableTest, EraseRemovesAndTombstonesAreReusable) {
  DecisionTable Table;
  EXPECT_TRUE(Table.publish(0x2000, 0x8));
  EXPECT_TRUE(Table.erase(0x2000));
  EXPECT_EQ(Table.lookup(0x2000), 0u);
  EXPECT_EQ(Table.size(), 0u);
  EXPECT_FALSE(Table.erase(0x2000)); // Already gone.
  // A republish lands again (the tombstoned slot is writable).
  EXPECT_TRUE(Table.publish(0x2000, 0x9));
  EXPECT_EQ(Table.lookup(0x2000), 0x9u);
}

TEST(DecisionTableTest, FullProbeWindowRefusesAndRecoversAfterErase) {
  // Smallest table: ProbeLimit slots per shard, so sustained pressure
  // genuinely fills probe windows.
  DecisionTable Table(DecisionTable::ProbeLimit);
  std::vector<uint64_t> Landed;
  size_t Refused = 0;
  for (uint64_t Key = 1; Key <= 600; ++Key) {
    if (Table.publish(Key, 0x1))
      Landed.push_back(Key);
    else
      ++Refused;
  }
  EXPECT_GT(Refused, 0u) << "600 keys into 256 slots must refuse some";
  EXPECT_EQ(Table.size(), Landed.size());
  for (uint64_t Key : Landed)
    EXPECT_EQ(Table.lookup(Key), 0x1u) << "key " << Key;

  // Erase everything: the table is all tombstones.  If tombstones were
  // not reusable, no further publish could ever succeed.
  for (uint64_t Key : Landed)
    EXPECT_TRUE(Table.erase(Key));
  EXPECT_EQ(Table.size(), 0u);
  EXPECT_TRUE(Table.publish(0xDEAD, 0x2));
  EXPECT_EQ(Table.lookup(0xDEAD), 0x2u);
}

TEST(DecisionTableTest, ConcurrentDecideConsumeStress) {
  // TSan target: one writer publishing/erasing, wait-free readers
  // consuming concurrently.  Readers may see presence or absence for
  // any key at any moment (decisions are hints) but never a value that
  // is not a validly packed LockPolicy.
  DecisionTable Table;
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Readers;
  std::atomic<uint64_t> Consumed{0};
  for (int R = 0; R < 3; ++R) {
    Readers.emplace_back([&Table, &Stop, &Consumed] {
      uint64_t Local = 0;
      // Sweep at least once *after* observing Stop: on a single-CPU
      // host the writer can finish before this thread is first
      // scheduled, and the final table state is non-empty.
      bool Done = false;
      while (!Done) {
        Done = Stop.load(std::memory_order_acquire);
        for (uint64_t Key = 1; Key <= 64; ++Key) {
          uint32_t Packed = Table.lookup(Key * 0x9E37);
          ASSERT_EQ(Packed & ~0xFu, 0u) << "torn or invalid packed policy";
          if (Packed != 0)
            ++Local;
        }
      }
      Consumed.fetch_add(Local, std::memory_order_relaxed);
    });
  }
  for (int I = 0; I < 20000; ++I) {
    uint64_t Key = (1 + (I % 64)) * 0x9E37;
    if (I % 3 == 2) {
      Table.erase(Key);
    } else {
      LockPolicy P;
      P.Spin = static_cast<SpinClass>(1 + (I % 2));
      P.KeepFat = I % 2 == 0;
      Table.publish(Key, P.pack());
    }
  }
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_GT(Consumed.load(std::memory_order_relaxed), 0u);
}

//===----------------------------------------------------------------------===//
// PolicyStore precedence
//===----------------------------------------------------------------------===//

TEST(PolicyStoreTest, ObjectDecisionOverridesClassDecision) {
  PolicyStore Store;
  LockPolicy ClassWide;
  ClassWide.Spin = SpinClass::ParkEarly;
  ASSERT_TRUE(Store.publishClass(7, ClassWide));
  LockPolicy PerObject;
  PerObject.Spin = SpinClass::Deep;
  ASSERT_TRUE(Store.publishObject(0x4000, PerObject));

  EXPECT_EQ(Store.forObject(0x4000, 7).Spin, SpinClass::Deep);
  // Another instance of the class inherits the class decision.
  EXPECT_EQ(Store.forObject(0x5000, 7).Spin, SpinClass::ParkEarly);
  // Unrelated class: default.
  EXPECT_TRUE(Store.forObject(0x5000, 8).isDefault());

  // Erasing the object decision re-exposes the class fallback.
  EXPECT_TRUE(Store.eraseObject(0x4000));
  EXPECT_EQ(Store.forObject(0x4000, 7).Spin, SpinClass::ParkEarly);
  EXPECT_TRUE(Store.eraseClass(7));
  EXPECT_TRUE(Store.forObject(0x4000, 7).isDefault());
}

TEST(PolicyStoreTest, ClassIndexZeroIsAValidKey) {
  // Class 0 is a legitimate registry index; the store must not confuse
  // it with DecisionTable's empty-key sentinel.
  PolicyStore Store;
  ASSERT_TRUE(Store.publishClass(0, keepFatPolicy()));
  EXPECT_TRUE(Store.forObject(0x6000, 0).KeepFat);
  EXPECT_TRUE(Store.forObject(0x6000, 1).isDefault());
  EXPECT_TRUE(Store.eraseClass(0));
  EXPECT_TRUE(Store.forObject(0x6000, 0).isDefault());
}

//===----------------------------------------------------------------------===//
// Engine hysteresis (synthetic profiler feed)
//===----------------------------------------------------------------------===//

namespace {

/// Harness for synthetic-event engine tests: a registry, one attached
/// recorder thread, a collector, and an engine with default config
/// (speculative deflation OFF — addresses here are synthetic).
struct EngineHarness {
  ThreadRegistry Registry;
  MonitorTable Monitors;
  obs::LockEventCollector Collector;
  AdaptivePolicyEngine Engine;
  ThreadContext Me;

  explicit EngineHarness(PolicyConfig Config = PolicyConfig())
      : Collector(Registry), Engine(Collector, Monitors, Config),
        Me(Registry.attach("engine-test")) {}
  ~EngineHarness() { Registry.detach(Me); }

  obs::EventRing &ring() { return *Me.eventRing(); }
};

} // namespace

TEST(AdaptiveEngineTest, ThrashPromotesAfterDwellNotBefore) {
  EngineHarness H;
  const uint64_t Addr = 0x7000;

  // Tick 1 seeds the baseline (cumulative profiler rows): no deltas yet.
  recordThrash(H.ring(), Addr, H.Me.index(), 5);
  H.Engine.tick();
  EXPECT_EQ(H.Engine.policyStore().objectDecisions(), 0u);

  // PromoteDwellTicks of consecutive thrash deltas are required; the
  // decision must not land early.
  for (unsigned T = 1; T < AdaptivePolicyEngine::PromoteDwellTicks; ++T) {
    recordThrash(H.ring(), Addr, H.Me.index(), 5);
    H.Engine.tick();
    EXPECT_EQ(H.Engine.policyStore().objectDecisions(), 0u)
        << "published before dwell at streak " << T;
  }
  recordThrash(H.ring(), Addr, H.Me.index(), 5);
  H.Engine.tick();
  EXPECT_EQ(H.Engine.policyStore().objectDecisions(), 1u);
  LockPolicy P = H.Engine.policyStore().forObject(Addr, 5);
  EXPECT_TRUE(P.KeepFat);
  EXPECT_TRUE(P.EagerInflate);
  PolicyCounters C = H.Engine.counters();
  EXPECT_EQ(C.Promotions, 1u);
  EXPECT_EQ(C.KeepFatDecisions, 1u);
  EXPECT_EQ(C.Demotions, 0u);
}

TEST(AdaptiveEngineTest, ChurnAcrossDwellBoundariesDoesNotOscillate) {
  EngineHarness H;
  const uint64_t Addr = 0x8000;

  // Promote (seed + dwell).
  for (unsigned T = 0; T <= AdaptivePolicyEngine::PromoteDwellTicks; ++T) {
    recordThrash(H.ring(), Addr, H.Me.index(), 5);
    H.Engine.tick();
  }
  ASSERT_EQ(H.Engine.policyStore().objectDecisions(), 1u);

  // Churn phase 1: alternate one thrash tick with one silent tick.
  // Every silent tick is inside the ColdTicks grace window, so the
  // published decision must hold steady — no expiry, no re-promotion.
  for (unsigned Round = 0;
       Round < 6 * AdaptivePolicyEngine::PromoteDwellTicks; ++Round) {
    if (Round % 2 == 0)
      recordThrash(H.ring(), Addr, H.Me.index(), 5);
    H.Engine.tick();
    EXPECT_EQ(H.Engine.policyStore().objectDecisions(), 1u)
        << "decision flapped at churn round " << Round;
    EXPECT_TRUE(H.Engine.policyStore().forObject(Addr, 5).KeepFat);
  }

  // Churn phase 2: the thrash evidence disappears (KeepFat suppressed
  // it) but the object stays contended.  The sticky lever must hold —
  // revoking here would restart the decide/thrash/decide oscillation.
  for (unsigned Round = 0;
       Round < 2 * AdaptivePolicyEngine::DemoteDwellTicks; ++Round) {
    recordContended(H.ring(), Addr, H.Me.index(), 5);
    H.Engine.tick();
    EXPECT_TRUE(H.Engine.policyStore().forObject(Addr, 5).KeepFat)
        << "sticky KeepFat dropped while still contended, round " << Round;
  }

  PolicyCounters C = H.Engine.counters();
  EXPECT_EQ(C.Promotions, 1u) << "oscillation: re-promoted after a revoke";
  EXPECT_EQ(C.Demotions, 0u);
  EXPECT_EQ(C.Expiries, 0u);
}

TEST(AdaptiveEngineTest, ColdExpiryThenRetrackRepublishes) {
  EngineHarness H;
  const uint64_t Addr = 0x9000;

  for (unsigned T = 0; T <= AdaptivePolicyEngine::PromoteDwellTicks; ++T) {
    recordThrash(H.ring(), Addr, H.Me.index(), 5);
    H.Engine.tick();
  }
  ASSERT_EQ(H.Engine.policyStore().objectDecisions(), 1u);

  // Silence: the decision survives the grace window, then expires at
  // exactly ColdTicks idle ticks.
  for (unsigned T = 1; T < AdaptivePolicyEngine::ColdTicks; ++T) {
    H.Engine.tick();
    EXPECT_EQ(H.Engine.policyStore().objectDecisions(), 1u)
        << "expired early at idle tick " << T;
  }
  H.Engine.tick();
  EXPECT_EQ(H.Engine.policyStore().objectDecisions(), 0u);
  EXPECT_EQ(H.Engine.counters().Expiries, 1u);

  // Long-cold: tracking state itself is dropped (ObjectsTracked decays
  // once nothing is published and the idle count passes 2x ColdTicks).
  for (unsigned T = 0; T < 2 * AdaptivePolicyEngine::ColdTicks; ++T)
    H.Engine.tick();

  // The object heats up again: the engine re-seeds and re-publishes
  // after the same dwell.
  for (unsigned T = 0; T <= AdaptivePolicyEngine::PromoteDwellTicks; ++T) {
    recordThrash(H.ring(), Addr, H.Me.index(), 5);
    H.Engine.tick();
  }
  EXPECT_EQ(H.Engine.policyStore().objectDecisions(), 1u);
  EXPECT_EQ(H.Engine.counters().Promotions, 2u);
}

TEST(AdaptiveEngineTest, ClassRollupCoversThePopulationTail) {
  EngineHarness H;
  const uint32_t Cls = 9;

  // MinClassObjects distinct thrashing instances of one class: the
  // class itself earns a decision, covering instances the engine never
  // profiled.
  for (unsigned T = 0; T <= AdaptivePolicyEngine::PromoteDwellTicks; ++T) {
    for (uint64_t I = 0; I < AdaptivePolicyEngine::MinClassObjects; ++I)
      recordThrash(H.ring(), 0xA000 + I * 0x100, H.Me.index(), Cls);
    H.Engine.tick();
  }
  EXPECT_EQ(H.Engine.policyStore().classDecisions(), 1u);
  EXPECT_GT(H.Engine.counters().ClassPromotions, 0u);
  // A fresh, never-profiled instance of the class inherits the lever.
  EXPECT_TRUE(H.Engine.policyStore().forObject(0xF0000, Cls).KeepFat);
  // Instances of other classes do not.
  EXPECT_FALSE(H.Engine.policyStore().forObject(0xF0000, Cls + 1).KeepFat);
}

TEST(AdaptiveEngineTest, HotObjectsDecideAmidLargeColdProfile) {
  // Four hot objects tick alongside 5,000 one-shot rows that enter the
  // profile once and never return, so the profiler's table outgrows the
  // engine's top-N within three ticks and its top rows churn every tick.
  // Speculative deflation stays off: the addresses are synthetic.
  EngineHarness H;
  const uint64_t FastAddr = 0x10000, ConvoyAddr = 0x20000,
                 ThrashAddr = 0x30000, FadingAddr = 0x40000;
  const uint32_t ColdClass = 7;
  const unsigned Ticks = 100, ColdPerTick = 50, FadingTicks = 40;
  const uint16_t Tid = H.Me.index();
  SplitMix64 Rng(2024);
  for (unsigned Tick = 0; Tick < Ticks; ++Tick) {
    for (int I = 0; I < 4; ++I)
      recordContended(H.ring(), FastAddr, Tid, 1, 1'000); // Deep.
    recordContended(H.ring(), ConvoyAddr, Tid, 2, 200'000); // ParkEarly.
    recordThrash(H.ring(), ThrashAddr, Tid, 3);
    recordContended(H.ring(), ThrashAddr, Tid, 3);
    if (Tick < FadingTicks) // Deep, then cold.
      for (int I = 0; I < 2; ++I)
        recordContended(H.ring(), FadingAddr, Tid, 4, 2'000);
    // Later cold rows block longer, so each tick's rows push earlier
    // ones out of the top-N.
    for (unsigned I = 0; I < ColdPerTick; ++I)
      recordContended(H.ring(), 0x1000000 + 0x40 * (Tick * ColdPerTick + I),
                      Tid, ColdClass, 100 * Tick + Rng.nextBounded(1000));
    H.Engine.tick();
  }

  const PolicyStore &Store = H.Engine.policyStore();
  EXPECT_EQ(Store.objectDecisions(), 3u);
  EXPECT_EQ(Store.forObject(FastAddr, 1).Spin, SpinClass::Deep);
  EXPECT_EQ(Store.forObject(ConvoyAddr, 2).Spin, SpinClass::ParkEarly);
  EXPECT_EQ(Store.forObject(ThrashAddr, 3), keepFatPolicy());
  EXPECT_TRUE(Store.forObject(FadingAddr, 4).isDefault());
  EXPECT_EQ(Store.classDecisions(), 0u);
  EXPECT_TRUE(Store.forObject(0x1000000, ColdClass).isDefault());

  // The cold class earned Deep while its rows blocked briefly, then
  // lost it once their blocked times left the fast-release band.
  PolicyCounters C = H.Engine.counters();
  EXPECT_EQ(C.Ticks, Ticks);
  EXPECT_EQ(C.Promotions, 4u);
  EXPECT_EQ(C.Demotions, 0u);
  EXPECT_EQ(C.Expiries, 1u);
  EXPECT_EQ(C.DeepSpinDecisions, 3u);
  EXPECT_EQ(C.ParkEarlyDecisions, 1u);
  EXPECT_EQ(C.KeepFatDecisions, 1u);
  EXPECT_EQ(C.ClassPromotions, 1u);
  EXPECT_EQ(C.ClassDemotions, 1u);
  EXPECT_EQ(C.SpeculativeDeflations, 0u);
  EXPECT_EQ(C.DeflationScans, 0u);
  EXPECT_EQ(C.PublishFailures, 0u);
  EXPECT_EQ(C.ObjectsTracked, 491u);
}

TEST(AdaptiveEngineTest, ConcurrentTickAndConsumeStress) {
  // TSan target for the engine<->slow-path boundary: one thread feeding
  // events and ticking (the single logical writer), readers consuming
  // decisions wait-free the whole time.
  EngineHarness H;
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Readers;
  for (int R = 0; R < 2; ++R) {
    Readers.emplace_back([&H, &Stop] {
      while (!Stop.load(std::memory_order_acquire)) {
        for (uint64_t I = 0; I < 8; ++I) {
          LockPolicy P = H.Engine.policyStore().forObject(0xB000 + I * 0x40, 3);
          SpinPolicy Ladder = spinPolicyFor(P.Spin, DefaultSpinPolicy);
          ASSERT_GT(Ladder.ParkThresholdRound, 0u);
        }
      }
    });
  }
  for (int T = 0; T < 200; ++T) {
    for (uint64_t I = 0; I < 8; ++I) {
      if ((T / 8) % 2 == 0)
        recordThrash(H.ring(), 0xB000 + I * 0x40, H.Me.index(), 3);
      else if (I % 2 == 0)
        recordContended(H.ring(), 0xB000 + I * 0x40, H.Me.index(), 3);
    }
    H.Engine.tick();
  }
  Stop.store(true, std::memory_order_release);
  for (std::thread &Th : Readers)
    Th.join();
  EXPECT_EQ(H.Engine.counters().Ticks, 200u);
}

//===----------------------------------------------------------------------===//
// End-to-end levers through ThinLockManager
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

TEST(PolicyE2ETest, KeepFatSuppressesQuiescentRetirement) {
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks(Monitors, &Stats, DeflationPolicy::WhenQuiescent);
  Heap TheHeap;
  const ClassInfo &Cls = TheHeap.classes().registerClass("KF", 0);
  Object *Pinned = TheHeap.allocate(Cls);
  Object *Control = TheHeap.allocate(Cls);

  PolicyStore Store;
  ASSERT_TRUE(
      Store.publishObject(reinterpret_cast<uint64_t>(Pinned), keepFatPolicy()));
  Locks.setPolicyStore(&Store);

  ThreadContext Me = Registry.attach("main");
  inflateByOverflow(Locks, Pinned, Me);
  inflateByOverflow(Locks, Control, Me);
  // The control object deflated at quiescence; the KeepFat object kept
  // its monitor.
  EXPECT_TRUE(Locks.isInflated(Pinned));
  EXPECT_FALSE(Locks.isInflated(Control));

  // Dropping the decision restores WhenQuiescent behavior on the next
  // inflate/release cycle.
  ASSERT_TRUE(Store.eraseObject(reinterpret_cast<uint64_t>(Pinned)));
  Locks.lock(Pinned, Me);
  Locks.unlock(Pinned, Me);
  EXPECT_FALSE(Locks.isInflated(Pinned));
  Registry.detach(Me);
}

TEST(PolicyE2ETest, EagerInflateTriggersOnTimedAcquireOnly) {
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks(Monitors, &Stats, DeflationPolicy::Never);
  Heap TheHeap;
  const ClassInfo &Cls = TheHeap.classes().registerClass("EI", 0);
  Object *Obj = TheHeap.allocate(Cls);

  PolicyStore Store;
  LockPolicy Eager;
  Eager.EagerInflate = true;
  ASSERT_TRUE(Store.publishObject(reinterpret_cast<uint64_t>(Obj), Eager));
  Locks.setPolicyStore(&Store);

  ThreadContext Me = Registry.attach("main");
  // Plain lock() is pure fast path: it must NOT consult the store (the
  // slow-path-only invariant), so the object stays thin.
  Locks.lock(Obj, Me);
  EXPECT_FALSE(Locks.isInflated(Obj));
  Locks.unlock(Obj, Me);

  // The timed path runs slow-path machinery and honors the hint.
  ASSERT_EQ(Locks.tryLockFor(Obj, Me, /*TimeoutNanos=*/1'000'000),
            TimedLockStatus::Acquired);
  EXPECT_TRUE(Locks.isInflated(Obj));
  Locks.unlock(Obj, Me);
  Registry.detach(Me);
}

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
  Locks.setPolicyStore(&Engine.policyStore());
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
  Locks.setPolicyStore(&Engine.policyStore());
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
  uint64_t FastBefore = Stats.fastPathAcquisitions();
  Locks.lock(Obj, Me);
  EXPECT_EQ(Stats.fastPathAcquisitions(), FastBefore + 1);
  EXPECT_EQ(Locks.lockDepth(Obj, Me), 1u);
  Locks.unlock(Obj, Me);
  Registry.detach(Me);
}
