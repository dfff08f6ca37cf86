//===- baselines/MonitorCache.h - JDK 1.1.1 monitor cache model -*- C++ -*-===//
///
/// \file
/// Model of the Sun JDK 1.1.1 synchronization baseline ("JDK111" in the
/// paper's measurements).  "Monitors are kept outside of the objects to
/// avoid the space cost, and are looked up in a monitor cache.
/// Unfortunately this is not only inefficient, it does not scale because
/// the monitor cache itself must be locked during lookups" (paper §1).
///
/// Every monitor operation therefore:
///   1. acquires the single global cache mutex,
///   2. hashes the object address to find (or create) its monitor,
///   3. releases the cache mutex and operates on the heavy monitor.
///
/// Monitors come from a bounded pool.  When the pool's free list is empty
/// a *sweep* scans the whole cache reclaiming monitors of unlocked
/// objects.  When the working set of locked objects exceeds the pool, the
/// free list thrashes: nearly every operation misses and pays a sweep —
/// the behaviour behind JDK111's MultiSync degradation in Figure 4 ("the
/// monitor cache thrashes its free list when the working set of monitors
/// exceeds the size of the monitor cache", §3.3).
///
/// The same cache is IBM112's cold path (baselines/HotLocks.h): a lookup
/// may go through a *hot front*, which runs two steps under the cache
/// mutex.  It re-reads the object's hot word before the lookup, and it may
/// promote an acquired object whose entry is idle and unpinned, taking
/// the object out of the cache.  JDK111 itself passes NoHotFront.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_BASELINES_MONITORCACHE_H
#define THINLOCKS_BASELINES_MONITORCACHE_H

#include "baselines/MonitorOps.h"
#include "core/LockProtocol.h"
#include "fatlock/FatLock.h"
#include "heap/Object.h"
#include "support/Mutex.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace thinlocks {

class JsonWriter;

/// Event counters for cache behaviour (all monotonically increasing).
struct MonitorCacheStats {
  uint64_t Lookups = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Sweeps = 0;
  uint64_t SweepScannedEntries = 0;
  uint64_t PoolGrowths = 0;
};

/// The hot front of a cache without hot locks (JDK111).
struct NoHotFront {
  FatLock *hotMonitor() { return nullptr; }
  bool wantsPromotion(uint64_t) const { return false; }
  FatLock *promote() { return nullptr; }
};

/// External-monitor baseline with a globally locked object->monitor map
/// and a bounded monitor pool.
class MonitorCache : public MonitorOps<MonitorCache> {
public:
  /// \param PoolSize number of pre-allocated monitors before reclamation
  /// sweeps begin (the "size of the monitor cache").
  explicit MonitorCache(size_t PoolSize = 128);

  MonitorCache(const MonitorCache &) = delete;
  MonitorCache &operator=(const MonitorCache &) = delete;

  static const char *protocolName() { return "JDK111"; }

  /// \returns a snapshot of the cache behaviour counters.
  MonitorCacheStats stats() const;

  /// \returns the cache counters rendered as a JSON object literal (the
  /// SyncBackend statsJson capability).
  std::string statsJson() const;

  /// Writes \p S as fields of the JSON object open in \p W; JDK111's and
  /// IBM112's statsJson both use it.
  static void writeStatsFields(JsonWriter &W, const MonitorCacheStats &S);

  /// \returns the number of object->monitor mappings currently live.
  size_t mappedMonitorCount() const;

  struct Entry;

  /// A monitor resolved for one operation: a pinned cache entry, or a
  /// monitor the hot front returned (Pinned == nullptr).
  struct Ref {
    FatLock *Lock = nullptr;
    Entry *Pinned = nullptr;
  };

  /// Resolves \p Obj's monitor through \p HotFront, with the cache mutex
  /// held throughout:
  ///   1. HotFront.hotMonitor() re-reads the object's hot word; a non-null
  ///      monitor is returned as is, before any lookup is counted;
  ///   2. the cache looks \p Obj up, making a mapping on an Acquire miss;
  ///   3. on an Acquire, if HotFront.wantsPromotion(use count) and the
  ///      entry is idle and unpinned, the entry is recycled and
  ///      HotFront.promote() returns the object's new monitor;
  ///   4. otherwise the entry is pinned until releaseMonitor.
  template <typename Front>
  Ref resolveMonitor(const Object *Obj, Lookup How, Front &HotFront);
  Ref resolveMonitor(const Object *Obj, Lookup How);
  void releaseMonitor(const Ref &M);

private:
  /// Maps \p Obj to a monitor from the free list, sweeping when it is
  /// empty and growing the pool when the sweep frees nothing.
  Entry *installLocked(const Object *Obj) TL_REQUIRES(CacheMu);
  /// Unmaps \p E and returns it to the free list.
  void recycleLocked(Entry *E) TL_REQUIRES(CacheMu);
  /// Sweeps the map reclaiming idle monitors onto the free list.
  void sweepLocked() TL_REQUIRES(CacheMu);
  static bool isIdle(const Entry &E);

  mutable Mutex CacheMu;
  std::unordered_map<const Object *, Entry *> Map TL_GUARDED_BY(CacheMu);
  std::vector<std::unique_ptr<Entry>> Pool TL_GUARDED_BY(CacheMu);
  std::vector<Entry *> FreeList TL_GUARDED_BY(CacheMu);
  MonitorCacheStats Counters TL_GUARDED_BY(CacheMu);
};

/// One pooled monitor; its fields other than Lock are guarded by the
/// cache mutex.
struct MonitorCache::Entry {
  FatLock Lock;
  const Object *Key = nullptr;
  /// Threads that resolved this monitor and have not finished their
  /// monitor operation yet; a sweep must not reclaim a pinned monitor.
  uint32_t Pins = 0;
  /// Times this mapping has been used since it was (re)installed.
  uint64_t UseCount = 0;
};

template <typename Front>
MonitorCache::Ref MonitorCache::resolveMonitor(const Object *Obj, Lookup How,
                                               Front &HotFront) {
  LockGuard Guard(CacheMu);
  if (FatLock *Hot = HotFront.hotMonitor())
    return {Hot, nullptr};

  if (How != Lookup::Peek)
    ++Counters.Lookups;
  Entry *E = nullptr;
  auto It = Map.find(Obj);
  if (It != Map.end()) {
    E = It->second;
    if (How != Lookup::Peek) {
      ++Counters.Hits;
      ++E->UseCount;
    }
  } else if (How == Lookup::Acquire) {
    ++Counters.Misses;
    E = installLocked(Obj);
  } else {
    return {};
  }

  if (How == Lookup::Acquire && HotFront.wantsPromotion(E->UseCount) &&
      isIdle(*E)) {
    recycleLocked(E);
    return {HotFront.promote(), nullptr};
  }
  ++E->Pins;
  return {&E->Lock, E};
}

static_assert(SyncProtocol<MonitorCache>,
              "MonitorCache must satisfy the protocol concept");

} // namespace thinlocks

#endif // THINLOCKS_BASELINES_MONITORCACHE_H
