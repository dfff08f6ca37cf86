//===- policy/AdaptivePolicyEngine.cpp - Profiler->policy loop ------------===//

#include "policy/AdaptivePolicyEngine.h"

#include "core/LockWord.h"
#include "fatlock/FatLock.h"
#include "fatlock/MonitorTable.h"
#include "heap/Object.h"
#include "obs/EventRing.h"
#include "obs/LockEventCollector.h"
#include "obs/LockEvents.h"
#include "park/ParkingLot.h"
#include "threads/ThreadContext.h"

using namespace thinlocks;
using namespace thinlocks::policy;

namespace {

// Thresholds, tuned for the 1-CPU evaluation host at the soak's 10ms tick.
/// How many profiler rows a tick examines.
constexpr size_t TopObjects = 128;
constexpr size_t TopClasses = 16;
/// Mean blocked-ns per contended acquire at or below which the owner
/// counts as fast-release (-> Deep spin).
constexpr uint64_t FastReleaseMeanNanos = 5'000;
/// Mean blocked-ns per contended acquire at or above which the object
/// counts as convoy-prone (-> ParkEarly).
constexpr uint64_t ConvoyMeanNanos = 100'000;
/// Inflations+deflations delta within one tick at or above which the
/// object counts as thrashing (-> KeepFat + EagerInflate).
constexpr uint64_t ReinflateThreshold = 2;
/// Deflation candidates examined per tick (bounds tick latency).
constexpr size_t DeflateScanLimit = 32;

/// Cumulative counters can only grow, but a collector reset() between
/// ticks would make them shrink; clamp so a reset reads as "no activity"
/// rather than a huge unsigned wraparound.
uint64_t deltaOf(uint64_t Current, uint64_t Baseline) {
  return Current >= Baseline ? Current - Baseline : 0;
}

/// A transition is a demotion when it removes a lever the published
/// decision carries (full expiry to default is the extreme case);
/// switching one non-default spin class for another is a lateral move
/// and takes the promotion dwell.
bool isDemotion(LockPolicy From, LockPolicy To) {
  if ((From.KeepFat && !To.KeepFat) || (From.EagerInflate && !To.EagerInflate))
    return true;
  return From.Spin != SpinClass::Default && To.Spin == SpinClass::Default;
}

} // namespace

AdaptivePolicyEngine::AdaptivePolicyEngine(obs::LockEventCollector &Collector,
                                           MonitorTable &Monitors,
                                           PolicyConfig Config)
    : Collector(Collector), Monitors(Monitors), Config(Config) {}

LockPolicy AdaptivePolicyEngine::classify(const Deltas &D) const {
  LockPolicy P;
  // Thrash first: one inflate/deflate round trip per tick is already the
  // pathology §2.3 warns about, and it dominates any spin-depth tuning.
  if (D.Inflations + D.Deflations >= ReinflateThreshold) {
    P.KeepFat = true;
    P.EagerInflate = true;
  }
  if (D.Contended > 0) {
    uint64_t Mean = D.Blocked / D.Contended;
    if (Mean <= FastReleaseMeanNanos)
      P.Spin = SpinClass::Deep;
    else if (Mean >= ConvoyMeanNanos)
      P.Spin = SpinClass::ParkEarly;
  }
  return P;
}

bool AdaptivePolicyEngine::advanceDwell(Tracked &T, LockPolicy Desired,
                                        bool Cold) {
  if (Desired != T.Desired) {
    T.Desired = Desired;
    T.DesiredStreak = 1;
  } else if (T.DesiredStreak < UINT32_MAX) {
    ++T.DesiredStreak;
  }
  if (T.Desired == T.Published)
    return false;
  // Cold expiry's ColdTicks wait *is* its dwell; stacking DemoteDwell on
  // top would keep decisions alive long after the object died.
  unsigned Need = Cold ? 1
                  : isDemotion(T.Published, T.Desired) ? DemoteDwellTicks
                                                       : PromoteDwellTicks;
  return T.DesiredStreak >= Need;
}

void AdaptivePolicyEngine::recordDecision(const ThreadContext *Recorder,
                                          uint64_t ObjectAddr,
                                          uint32_t ClassIndex,
                                          LockPolicy Policy,
                                          bool IsClass) const {
  if (!Recorder || !obs::tracingEnabled())
    return;
  obs::EventRing *Ring = Recorder->eventRing();
  if (!Ring)
    return;
  // Extra bit 0: 1 = published, 0 = erased; bit 1: class-level decision.
  uint16_t Extra = (Policy.isDefault() ? 0u : 1u) | (IsClass ? 2u : 0u);
  Ring->record(obs::monotonicNanos(), IsClass ? 0 : ObjectAddr,
               obs::LockEvent::packMeta(obs::EventKind::PolicyDecision,
                                        Recorder->index(), ClassIndex, Extra),
               Policy.pack());
}

void AdaptivePolicyEngine::bumpLeverCounters(LockPolicy Policy) {
  if (Policy.Spin == SpinClass::Deep)
    ++Counters.DeepSpinDecisions;
  else if (Policy.Spin == SpinClass::ParkEarly)
    ++Counters.ParkEarlyDecisions;
  if (Policy.KeepFat)
    ++Counters.KeepFatDecisions;
}

void AdaptivePolicyEngine::stepKey(Tracked &T, const Deltas &D, uint64_t Key,
                                   bool IsClass,
                                   const ThreadContext *Recorder) {
  LockPolicy Desired;
  bool Cold = false;
  if (D.active()) {
    T.IdleTicks = 0;
    Desired = classify(D);
    // A published KeepFat suppresses its own evidence (the deflations
    // that proved thrash stop happening), so the lever is sticky while
    // the object stays contended — it drops at cold expiry, not the
    // first thrash-free tick.  Without this the loop oscillates:
    // decide -> evidence vanishes -> revoke -> thrash -> decide.
    if (T.Desired.KeepFat && D.Contended > 0) {
      Desired.KeepFat = true;
      Desired.EagerInflate |= T.Desired.EagerInflate;
    }
  } else {
    ++T.IdleTicks;
    if (T.IdleTicks >= ColdTicks) {
      Cold = true; // Desired stays default: expire the decision.
    } else {
      // Quiet tick inside the idle grace window: hold the current
      // classification rather than reading silence as a demotion vote.
      Desired = T.Desired;
    }
  }
  if (!advanceDwell(T, Desired, Cold))
    return;

  LockPolicy Previous = T.Published;
  bool Ok;
  if (T.Desired.isDefault()) {
    // erase() returning false just means a failed publish never landed
    // the entry; either way the table now matches the default state.
    if (IsClass)
      Store.eraseClass(static_cast<uint32_t>(Key));
    else
      Store.eraseObject(Key);
    Ok = true;
  } else {
    Ok = IsClass ? Store.publishClass(static_cast<uint32_t>(Key), T.Desired)
                 : Store.publishObject(Key, T.Desired);
  }
  if (!Ok) {
    ++Counters.PublishFailures; // Probe window full; retry next tick.
    return;
  }
  T.Published = T.Desired;
  if (IsClass) {
    if (T.Published.isDefault())
      ++Counters.ClassDemotions;
    else
      ++Counters.ClassPromotions;
  } else if (Cold) {
    ++Counters.Expiries;
  } else if (isDemotion(Previous, T.Published)) {
    ++Counters.Demotions;
  } else {
    ++Counters.Promotions;
  }
  bumpLeverCounters(T.Published);
  recordDecision(Recorder, Key, T.ClassIndex, T.Published, IsClass);
}

void AdaptivePolicyEngine::deflateScan(const ThreadContext *Recorder) {
  if (!Config.SpeculativeDeflation)
    return;
  size_t Scanned = 0;
  for (const auto &KV : Objects) {
    if (Scanned >= DeflateScanLimit)
      break;
    const Tracked &T = KV.second;
    if (KV.first == 0 || T.IdleTicks < ColdTicks)
      continue;
    ++Scanned;
    ++Counters.DeflationScans;
    // The lifetime contract (PolicyConfig::SpeculativeDeflation doc)
    // makes this dereference legal: profiled objects outlive the engine.
    Object *Obj = reinterpret_cast<Object *>(KV.first);
    std::atomic<uint32_t> &Word = Obj->lockWord();
    uint32_t Value = Word.load(std::memory_order_acquire);
    if (!lockword::isFat(Value))
      continue;
    FatLock *Fat = Monitors.resolve(Value);
    if (Fat->isPinned())
      continue; // Emergency monitor: shared by many words; never retire.
    if (!Fat->retireIfQuiescent())
      continue;
    // We won the retire: from here the word is frozen — the owner path
    // can't race (retirement required Owner == 0), and contenders that
    // resolve the stale word bounce off the retired monitor into
    // backoffOnWord, waiting for exactly this store.
    Word.store(lockword::headerBitsOf(Value), std::memory_order_release);
    ParkingLot::global().unparkAll(Obj);
    Monitors.noteRetirement();
    ++Counters.SpeculativeDeflations;
    if (Recorder && obs::tracingEnabled()) {
      if (obs::EventRing *Ring = Recorder->eventRing())
        Ring->record(obs::monotonicNanos(), KV.first,
                     obs::LockEvent::packMeta(obs::EventKind::Deflate,
                                              Recorder->index(), T.ClassIndex,
                                              /*Extra=*/1),
                     0);
    }
  }
}

void AdaptivePolicyEngine::tick(const ThreadContext *Recorder) {
  Collector.drain();
  std::vector<obs::HotLockEntry> Top = Collector.topLocks(TopObjects);
  std::vector<obs::HotClassEntry> TopC =
      Collector.topClasses(TopClasses);

  LockGuard G(Mu);
  ++Counters.Ticks;

  // --- Per-object pass.  The profiler's table is cumulative, so a row's
  // first sighting only seeds its baseline; deltas start on the second
  // sighting.  Tracked objects absent from this tick's table (fell out
  // of the top-N, or simply quiet) take an idle step.
  for (const obs::HotLockEntry &E : Top) {
    if (E.ObjectAddr == 0)
      continue; // Defensive: address 0 is DecisionTable's empty sentinel.
    Tracked &T = Objects[E.ObjectAddr];
    T.SeenInTick = Counters.Ticks;
    T.ClassIndex = E.ClassIndex;
    Deltas D;
    if (T.Seeded) {
      D.Blocked = deltaOf(E.BlockedNanos, T.BlockedNanos);
      D.Contended = deltaOf(E.ContendedAcquires, T.ContendedAcquires);
      D.Inflations = deltaOf(E.Inflations, T.Inflations);
      D.Deflations = deltaOf(E.Deflations, T.Deflations);
      D.Parks = deltaOf(E.Parks, T.Parks);
    }
    T.Seeded = true;
    T.BlockedNanos = E.BlockedNanos;
    T.ContendedAcquires = E.ContendedAcquires;
    T.Inflations = E.Inflations;
    T.Deflations = E.Deflations;
    T.Parks = E.Parks;
    stepKey(T, D, E.ObjectAddr, /*IsClass=*/false, Recorder);
  }
  for (auto It = Objects.begin(); It != Objects.end();) {
    Tracked &T = It->second;
    if (T.SeenInTick != Counters.Ticks)
      stepKey(T, Deltas(), It->first, /*IsClass=*/false, Recorder);
    // Long-cold and nothing published: forget the object entirely.  (A
    // published decision is never stranded — stepKey expires it at
    // ColdTicks, well before 2x.)
    if (T.IdleTicks >= 2 * ColdTicks && T.Published.isDefault())
      It = Objects.erase(It);
    else
      ++It;
  }

  // --- Per-class pass: same machinery over class rollups, gated so a
  // class needs a population (MinClassObjects) before its long tail
  // inherits a decision.
  for (const obs::HotClassEntry &E : TopC) {
    if (E.Objects < MinClassObjects)
      continue;
    Tracked &T = Classes[E.ClassIndex];
    T.SeenInTick = Counters.Ticks;
    T.ClassIndex = E.ClassIndex;
    Deltas D;
    if (T.Seeded) {
      D.Blocked = deltaOf(E.BlockedNanos, T.BlockedNanos);
      D.Contended = deltaOf(E.ContendedAcquires, T.ContendedAcquires);
      D.Inflations = deltaOf(E.Inflations, T.Inflations);
      D.Deflations = deltaOf(E.Deflations, T.Deflations);
      D.Parks = deltaOf(E.Parks, T.Parks);
    }
    T.Seeded = true;
    T.BlockedNanos = E.BlockedNanos;
    T.ContendedAcquires = E.ContendedAcquires;
    T.Inflations = E.Inflations;
    T.Deflations = E.Deflations;
    T.Parks = E.Parks;
    stepKey(T, D, E.ClassIndex, /*IsClass=*/true, Recorder);
  }
  for (auto It = Classes.begin(); It != Classes.end();) {
    Tracked &T = It->second;
    if (T.SeenInTick != Counters.Ticks)
      stepKey(T, Deltas(), It->first, /*IsClass=*/true, Recorder);
    if (T.IdleTicks >= 2 * ColdTicks && T.Published.isDefault())
      It = Classes.erase(It);
    else
      ++It;
  }

  deflateScan(Recorder);
  Counters.ObjectsTracked = Objects.size();
}

PolicyCounters AdaptivePolicyEngine::counters() const {
  LockGuard G(Mu);
  return Counters;
}
