//===- baselines/MonitorCache.cpp - JDK 1.1.1 monitor cache model ---------===//

#include "baselines/MonitorCache.h"

#include <cassert>

using namespace thinlocks;

MonitorCache::MonitorCache(size_t PoolSize) {
  assert(PoolSize > 0 && "monitor pool must not be empty");
  Pool.reserve(PoolSize);
  FreeList.reserve(PoolSize);
  for (size_t I = 0; I < PoolSize; ++I) {
    Pool.push_back(std::make_unique<Entry>());
    FreeList.push_back(Pool.back().get());
  }
}

bool MonitorCache::isIdle(const Entry &E) {
  return E.Pins == 0 && E.Lock.ownerIndex() == 0 &&
         E.Lock.entryQueueLength() == 0 && E.Lock.waitSetSize() == 0;
}

void MonitorCache::sweepLocked() {
  ++Counters.Sweeps;
  for (auto It = Map.begin(); It != Map.end();) {
    ++Counters.SweepScannedEntries;
    Entry *E = It->second;
    if (isIdle(*E)) {
      E->Key = nullptr;
      E->UseCount = 0;
      FreeList.push_back(E);
      It = Map.erase(It);
    } else {
      ++It;
    }
  }
}

MonitorCache::Entry *MonitorCache::installLocked(const Object *Obj) {
  if (FreeList.empty()) {
    // The free list thrashes here when the locked working set exceeds
    // the pool: every miss pays a whole-cache sweep.
    sweepLocked();
    if (FreeList.empty()) {
      // Every pooled monitor is in active use; grow.
      Pool.push_back(std::make_unique<Entry>());
      FreeList.push_back(Pool.back().get());
      ++Counters.PoolGrowths;
    }
  }
  Entry *E = FreeList.back();
  FreeList.pop_back();
  E->Key = Obj;
  E->UseCount = 1;
  Map.emplace(Obj, E);
  return E;
}

void MonitorCache::recycleLocked(Entry *E) {
  Map.erase(E->Key);
  E->Key = nullptr;
  E->UseCount = 0;
  FreeList.push_back(E);
}

MonitorCache::Ref MonitorCache::resolveMonitor(const Object *Obj,
                                               Lookup How) {
  NoHotFront None;
  return resolveMonitor(Obj, How, None);
}

void MonitorCache::releaseMonitor(const Ref &M) {
  LockGuard Guard(CacheMu);
  assert(M.Pinned->Pins > 0 && "unpin without pin");
  --M.Pinned->Pins;
}

MonitorCacheStats MonitorCache::stats() const {
  LockGuard Guard(CacheMu);
  return Counters;
}

size_t MonitorCache::mappedMonitorCount() const {
  LockGuard Guard(CacheMu);
  return Map.size();
}
