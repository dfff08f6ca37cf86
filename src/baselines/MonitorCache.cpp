//===- baselines/MonitorCache.cpp - JDK 1.1.1 monitor cache model ---------===//

#include "baselines/MonitorCache.h"

#include "support/JsonWriter.h"

#include <cassert>

using namespace thinlocks;

MonitorCache::MonitorCache(size_t PoolSize) {
  assert(PoolSize > 0 && "monitor pool must not be empty");
  Pool.reserve(PoolSize);
  FreeList.reserve(PoolSize);
  for (size_t I = 0; I < PoolSize; ++I) {
    Pool.push_back(std::make_unique<CachedMonitor>());
    FreeList.push_back(Pool.back().get());
  }
}

MonitorCache::~MonitorCache() = default;

bool MonitorCache::isIdle(const CachedMonitor &Monitor) {
  return Monitor.Pins == 0 && Monitor.Lock.ownerIndex() == 0 &&
         Monitor.Lock.entryQueueLength() == 0 &&
         Monitor.Lock.waitSetSize() == 0;
}

size_t MonitorCache::sweepLocked() {
  ++Counters.Sweeps;
  size_t Reclaimed = 0;
  for (auto It = Map.begin(); It != Map.end();) {
    ++Counters.SweepScannedEntries;
    CachedMonitor *Monitor = It->second;
    if (isIdle(*Monitor)) {
      Monitor->Key = nullptr;
      Monitor->UseCount = 0;
      FreeList.push_back(Monitor);
      It = Map.erase(It);
      ++Reclaimed;
    } else {
      ++It;
    }
  }
  return Reclaimed;
}

MonitorCache::CachedMonitor *
MonitorCache::resolveAndPin(const Object *Obj, bool CreateIfMissing) {
  std::lock_guard<std::mutex> Guard(CacheMutex);
  ++Counters.Lookups;
  auto It = Map.find(Obj);
  if (It != Map.end()) {
    ++Counters.Hits;
    CachedMonitor *Monitor = It->second;
    ++Monitor->Pins;
    ++Monitor->UseCount;
    return Monitor;
  }
  if (!CreateIfMissing)
    return nullptr;

  ++Counters.Misses;
  if (FreeList.empty()) {
    // The free list thrashes here when the locked working set exceeds
    // the pool: every miss pays a whole-cache sweep.
    sweepLocked();
    if (FreeList.empty()) {
      // Every pooled monitor is in active use; grow.
      Pool.push_back(std::make_unique<CachedMonitor>());
      FreeList.push_back(Pool.back().get());
      ++Counters.PoolGrowths;
    }
  }
  CachedMonitor *Monitor = FreeList.back();
  FreeList.pop_back();
  Monitor->Key = Obj;
  Monitor->Pins = 1;
  Monitor->UseCount = 1;
  Map.emplace(Obj, Monitor);
  return Monitor;
}

void MonitorCache::unpin(CachedMonitor *Monitor) {
  std::lock_guard<std::mutex> Guard(CacheMutex);
  assert(Monitor->Pins > 0 && "unpin without pin");
  --Monitor->Pins;
}

void MonitorCache::lock(Object *Obj, const ThreadContext &Thread) {
  CachedMonitor *Monitor = resolveAndPin(Obj, /*CreateIfMissing=*/true);
  Monitor->Lock.lock(Thread);
  unpin(Monitor);
}

void MonitorCache::unlock(Object *Obj, const ThreadContext &Thread) {
  [[maybe_unused]] bool Ok = unlockChecked(Obj, Thread);
  assert(Ok && "unlock of a monitor the thread does not own");
}

bool MonitorCache::unlockChecked(Object *Obj, const ThreadContext &Thread) {
  CachedMonitor *Monitor = resolveAndPin(Obj, /*CreateIfMissing=*/false);
  if (!Monitor)
    return false;
  bool Ok = Monitor->Lock.unlockChecked(Thread);
  unpin(Monitor);
  return Ok;
}

bool MonitorCache::tryLock(Object *Obj, const ThreadContext &Thread) {
  CachedMonitor *Monitor = resolveAndPin(Obj, /*CreateIfMissing=*/true);
  bool Ok = Monitor->Lock.tryLock(Thread);
  unpin(Monitor);
  return Ok;
}

TimedLockStatus MonitorCache::tryLockFor(Object *Obj,
                                         const ThreadContext &Thread,
                                         int64_t TimeoutNanos) {
  CachedMonitor *Monitor = resolveAndPin(Obj, /*CreateIfMissing=*/true);
  FatLock::TimedResult Result = Monitor->Lock.lockIfLiveFor(Thread,
                                                            TimeoutNanos);
  unpin(Monitor);
  // A pinned cache monitor is never retired out from under us, so Retired
  // is unreachable; no waits-for graph here, so any failure degrades to
  // TimedOut (see degradeToTimedOut in core/LockProtocol.h).
  return degradeToTimedOut(Result == FatLock::TimedResult::Acquired);
}

bool MonitorCache::holdsLock(Object *Obj, const ThreadContext &Thread) const {
  std::lock_guard<std::mutex> Guard(CacheMutex);
  auto It = Map.find(Obj);
  if (It == Map.end())
    return false;
  return It->second->Lock.heldBy(Thread);
}

uint32_t MonitorCache::lockDepth(Object *Obj,
                                 const ThreadContext &Thread) const {
  std::lock_guard<std::mutex> Guard(CacheMutex);
  auto It = Map.find(Obj);
  if (It == Map.end())
    return 0;
  return It->second->Lock.heldBy(Thread) ? It->second->Lock.holdCount() : 0;
}

WaitStatus MonitorCache::wait(Object *Obj, const ThreadContext &Thread,
                              int64_t TimeoutNanos) {
  CachedMonitor *Monitor = resolveAndPin(Obj, /*CreateIfMissing=*/false);
  if (!Monitor)
    return WaitStatus::NotOwner;
  if (!Monitor->Lock.heldBy(Thread)) {
    unpin(Monitor);
    return WaitStatus::NotOwner;
  }
  FatLock::WaitResult Result = Monitor->Lock.wait(Thread, TimeoutNanos);
  unpin(Monitor);
  return Result == FatLock::WaitResult::Notified ? WaitStatus::Notified
                                                 : WaitStatus::TimedOut;
}

NotifyStatus MonitorCache::notify(Object *Obj, const ThreadContext &Thread) {
  CachedMonitor *Monitor = resolveAndPin(Obj, /*CreateIfMissing=*/false);
  if (!Monitor)
    return NotifyStatus::NotOwner;
  if (!Monitor->Lock.heldBy(Thread)) {
    unpin(Monitor);
    return NotifyStatus::NotOwner;
  }
  Monitor->Lock.notify(Thread);
  unpin(Monitor);
  return NotifyStatus::Ok;
}

NotifyStatus MonitorCache::notifyAll(Object *Obj,
                                     const ThreadContext &Thread) {
  CachedMonitor *Monitor = resolveAndPin(Obj, /*CreateIfMissing=*/false);
  if (!Monitor)
    return NotifyStatus::NotOwner;
  if (!Monitor->Lock.heldBy(Thread)) {
    unpin(Monitor);
    return NotifyStatus::NotOwner;
  }
  Monitor->Lock.notifyAll(Thread);
  unpin(Monitor);
  return NotifyStatus::Ok;
}

MonitorCacheStats MonitorCache::stats() const {
  std::lock_guard<std::mutex> Guard(CacheMutex);
  return Counters;
}

size_t MonitorCache::mappedMonitorCount() const {
  std::lock_guard<std::mutex> Guard(CacheMutex);
  return Map.size();
}

std::string MonitorCache::statsJson() const {
  MonitorCacheStats S = stats();
  return JsonWriter()
      .beginObject()
      .field("lookups", S.Lookups)
      .field("hits", S.Hits)
      .field("misses", S.Misses)
      .field("sweeps", S.Sweeps)
      .field("sweep_scanned", S.SweepScannedEntries)
      .field("pool_growths", S.PoolGrowths)
      .end()
      .take();
}
