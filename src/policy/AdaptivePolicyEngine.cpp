//===- policy/AdaptivePolicyEngine.cpp - Profiler-driven deflation --------===//

#include "policy/AdaptivePolicyEngine.h"

#include "fatlock/MonitorTable.h"
#include "obs/EventRing.h"
#include "obs/LockEventCollector.h"
#include "obs/LockEvents.h"
#include "threads/ThreadContext.h"

#include <algorithm>
#include <vector>

using namespace thinlocks;
using namespace thinlocks::policy;

namespace {

/// How many profiler rows a tick examines.
constexpr size_t TopObjects = 128;

/// A row's activity stamp: the sum of its cumulative counts, which grows
/// exactly when one of them does.  Waits and notifies do not count: a
/// monitor with waiters is not quiescent, so the scan leaves it anyway.
uint64_t activityOf(const obs::HotLockEntry &E) {
  return E.BlockedNanos + E.ContendedAcquires + E.Inflations + E.Deflations +
         E.Parks;
}

} // namespace

AdaptivePolicyEngine::AdaptivePolicyEngine(obs::LockEventCollector &Collector,
                                           MonitorTable &Monitors,
                                           PolicyConfig Config)
    : Collector(Collector), Monitors(Monitors), Config(Config) {}

void AdaptivePolicyEngine::deflateScan(const ThreadContext *Recorder) {
  if (!Config.SpeculativeDeflation)
    return;
  // Longest idle first, ties in tracking order: which cold objects one
  // tick's budget reaches depends on their history, not their addresses.
  std::vector<std::pair<uint64_t, const Tracked *>> Cold;
  for (const auto &[Addr, T] : Objects)
    if (T.IdleTicks >= ColdTicks)
      Cold.emplace_back(Addr, &T);
  auto End = Cold.begin() + std::min(Cold.size(), DeflateScanLimit);
  std::partial_sort(Cold.begin(), End, Cold.end(),
                    [](const auto &A, const auto &B) {
                      if (A.second->IdleTicks != B.second->IdleTicks)
                        return A.second->IdleTicks > B.second->IdleTicks;
                      return A.second->Order < B.second->Order;
                    });
  for (auto It = Cold.begin(); It != End; ++It) {
    const uint64_t Addr = It->first;
    ++Counters.DeflationScans;
    // The lifetime contract (PolicyConfig::SpeculativeDeflation doc)
    // makes this dereference legal: profiled objects outlive the engine.
    if (Monitors.deflateIfQuiescent(reinterpret_cast<Object *>(Addr))) {
      ++Counters.SpeculativeDeflations;
      if (Recorder && obs::tracingEnabled()) {
        if (obs::EventRing *Ring = Recorder->eventRing())
          Ring->record(obs::monotonicNanos(), Addr,
                       obs::LockEvent::packMeta(obs::EventKind::Deflate,
                                                Recorder->index(),
                                                It->second->ClassIndex,
                                                /*Extra=*/1),
                       0);
      }
    }
    // Examined: forget it.  Kept, it would stay the longest idle and
    // spend every later budget on a thin word (under WhenQuiescent the
    // usual case: the last unlocker retired the monitor) before any fat
    // one.  A busy monitor the profile still lists is tracked again next
    // tick and examined again once cold.
    Objects.erase(Addr);
  }
}

void AdaptivePolicyEngine::tick(const ThreadContext *Recorder) {
  Collector.drain();
  std::vector<obs::HotLockEntry> Top = Collector.topLocks(TopObjects);

  LockGuard G(Mu);
  ++Counters.Ticks;

  // The profiler's table is cumulative, so a row's first sighting only
  // seeds its baseline (and counts as idle); activity shows from the
  // second sighting on.  Tracked objects absent from this tick's table
  // (fell out of the top-N, or simply quiet) take an idle step below.
  for (const obs::HotLockEntry &E : Top) {
    auto [It, Inserted] = Objects.try_emplace(E.ObjectAddr);
    Tracked &T = It->second;
    if (Inserted)
      T.Order = NextOrder++;
    T.SeenInTick = Counters.Ticks;
    T.ClassIndex = E.ClassIndex;
    uint64_t Activity = activityOf(E);
    // A collector reset() between ticks shrinks the counts; that reads
    // as no activity rather than a wraparound.
    if (!Inserted && Activity > T.Activity)
      T.IdleTicks = 0;
    else
      ++T.IdleTicks;
    T.Activity = Activity;
  }
  for (auto It = Objects.begin(); It != Objects.end();) {
    Tracked &T = It->second;
    if (T.SeenInTick != Counters.Ticks)
      ++T.IdleTicks;
    // Long cold: forget the object entirely.
    if (T.IdleTicks >= 2 * ColdTicks)
      It = Objects.erase(It);
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
