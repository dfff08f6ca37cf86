//===- baselines/HotLocks.h - IBM JDK 1.1.2 hot locks model ----*- C++ -*-===//
///
/// \file
/// Model of the IBM 1.1.2 JDK baseline ("IBM112", paper §3): a monitor
/// cache augmented with a small number (32) of pre-allocated "hot locks".
/// "The system begins by using the default fat locks, slightly modified
/// to record locking frequency.  When a fat lock is detected to be hot, a
/// pointer to the hot lock is placed in the header of the object...  the
/// displaced header information is moved into the hot lock structure.
/// One bit in the header word indicates whether the word is a hot lock
/// pointer or regular header data."
///
/// Our header words are 32 bits, so instead of a raw pointer we install a
/// tagged hot-lock *id* — mechanically identical (one bit distinguishes,
/// one indirection resolves) and faithful in cost.
///
/// The strength: once hot, an object's monitor operations skip the global
/// cache lock and hash lookup entirely.  The Achilles heel (§3.3): only
/// NumHotLocks objects can ever be hot, so workloads with larger locking
/// working sets fall back to the thrash-prone cache — the IBM112 cliff at
/// n > 32 in Figure 4 and its macro-benchmark slowdowns in Figure 5.
///
/// The cold path *is* the JDK111 cache (baselines/MonitorCache.h), with
/// the hot table as its front: under the cache mutex IBM112 re-reads the
/// hot word and runs the promotion test, nothing else.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_BASELINES_HOTLOCKS_H
#define THINLOCKS_BASELINES_HOTLOCKS_H

#include "baselines/MonitorCache.h"
#include "baselines/MonitorOps.h"
#include "core/LockProtocol.h"
#include "fatlock/FatLock.h"
#include "heap/Object.h"
#include "support/StatsCounter.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace thinlocks {

/// Event counters for the hot-lock baseline.
struct HotLocksStats {
  /// Operations that resolved a hot monitor, and those that resolved a
  /// cache monitor.
  uint64_t HotPathOps = 0;
  uint64_t CachePathOps = 0;
  uint64_t Promotions = 0;
  /// The cold path's counters, kept by the cache it runs on.
  MonitorCacheStats Cache;
};

/// Monitor cache + bounded hot-lock table baseline.
class HotLocks : public MonitorOps<HotLocks> {
public:
  /// \param NumHotLocks hot-lock table size (the paper's system used 32).
  /// \param PromotionThreshold uses of one mapping after which the object
  /// is promoted to a hot lock (when a slot is free and the monitor is
  /// momentarily idle).
  /// \param PoolSize fallback monitor-cache pool size.
  explicit HotLocks(size_t NumHotLocks = 32, uint64_t PromotionThreshold = 4,
                    size_t PoolSize = 128);

  HotLocks(const HotLocks &) = delete;
  HotLocks &operator=(const HotLocks &) = delete;

  static const char *protocolName() { return "IBM112"; }

  /// \returns true if \p Obj has been promoted to a hot lock.
  bool isHot(const Object *Obj) const;

  /// \returns the number of hot-lock slots still unassigned.
  size_t freeHotSlots() const;

  /// \returns the header word displaced when \p Obj went hot; only
  /// meaningful when isHot(Obj).
  uint32_t displacedHeader(const Object *Obj) const;

  HotLocksStats stats() const;

  /// \returns the hot/cache path and cache counters rendered as a JSON
  /// object literal (the SyncBackend statsJson capability).
  std::string statsJson() const;

private:
  friend class MonitorOps<HotLocks>;

  /// Bit 31 of the header word: set = the word holds a hot-lock id.
  static constexpr uint32_t HotFlagBit = 1u << 31;
  static constexpr uint32_t HotIdShift = 8;
  static constexpr uint32_t HeaderByteMask = 0xFFu;

  struct HotSlot {
    FatLock Lock;
    const Object *Key = nullptr;
    uint32_t DisplacedHeader = 0;
  };

  /// The hot table as the cache's front (defined in HotLocks.cpp).
  struct Front;

  static bool isHotWord(uint32_t Word) { return (Word & HotFlagBit) != 0; }
  static uint32_t hotIdOf(uint32_t Word) {
    return ((Word & ~HotFlagBit) >> HotIdShift) - 1;
  }
  static uint32_t makeHotWord(uint32_t Id, uint32_t OriginalWord) {
    return HotFlagBit | ((Id + 1) << HotIdShift) |
           (OriginalWord & HeaderByteMask);
  }

  /// Resolves \p Obj to its hot slot (no cache lock needed) or, through
  /// the cache, to a pinned cache entry.  An Acquire may promote.
  MonitorCache::Ref resolveMonitor(Object *Obj, Lookup How);
  void releaseMonitor(const MonitorCache::Ref &M) {
    if (M.Pinned)
      Cache.releaseMonitor(M);
  }

  std::vector<std::unique_ptr<HotSlot>> HotTable;
  /// Hot slots handed out so far (== promotions).  Only a promotion
  /// writes it, under the cache mutex.
  std::atomic<size_t> NextHotSlot{0};
  uint64_t PromotionThreshold;
  MonitorCache Cache;
  // Bumped outside the cache mutex on the hot path; hence atomic.
  StatsCounter HotPathOps;
  StatsCounter CachePathOps;
};

static_assert(SyncProtocol<HotLocks>,
              "HotLocks must satisfy the protocol concept");

} // namespace thinlocks

#endif // THINLOCKS_BASELINES_HOTLOCKS_H
