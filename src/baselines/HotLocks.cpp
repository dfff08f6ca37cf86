//===- baselines/HotLocks.cpp - IBM JDK 1.1.2 hot locks model -------------===//

#include "baselines/HotLocks.h"

#include "support/FailPoint.h"

#include <cassert>
#include <chrono>
#include <thread>

using namespace thinlocks;

/// The two IBM112 steps that run under the cache mutex (see
/// MonitorCache::resolveMonitor).  Promotions happen only here, so the
/// cache mutex serializes them.
struct HotLocks::Front {
  HotLocks &Self;
  Object *Obj;
  /// The header word as re-read under the cache mutex; a promotion
  /// displaces it into the hot slot.
  uint32_t Word = 0;

  /// Re-reads the hot word before any lookup, so an object a racing
  /// promotion just made hot never gets a second monitor.
  FatLock *hotMonitor() {
    Word = Obj->lockWord().load(std::memory_order_acquire);
    return isHotWord(Word) ? &Self.HotTable[hotIdOf(Word)]->Lock : nullptr;
  }

  /// The frequency threshold is crossed and a hot slot is free.
  bool wantsPromotion(uint64_t UseCount) const {
    return UseCount >= Self.PromotionThreshold &&
           Self.NextHotSlot.load(std::memory_order_relaxed) <
               Self.HotTable.size();
  }

  /// Installs the next hot slot.  The cache has recycled the object's
  /// idle entry, so no monitor state needs transferring.
  FatLock *promote() {
    size_t Id = Self.NextHotSlot.load(std::memory_order_relaxed);
    HotSlot &Slot = *Self.HotTable[Id];
    Slot.Key = Obj;
    Slot.DisplacedHeader = Word;
    Self.NextHotSlot.store(Id + 1, std::memory_order_relaxed);
    Obj->lockWord().store(makeHotWord(static_cast<uint32_t>(Id), Word),
                          std::memory_order_release);
    return &Slot.Lock;
  }
};

HotLocks::HotLocks(size_t NumHotLocks, uint64_t PromotionThreshold,
                   size_t PoolSize)
    : PromotionThreshold(PromotionThreshold), Cache(PoolSize) {
  assert(NumHotLocks > 0 && "need at least one hot lock");
  HotTable.reserve(NumHotLocks);
  for (size_t I = 0; I < NumHotLocks; ++I)
    HotTable.push_back(std::make_unique<HotSlot>());
}

MonitorCache::Ref HotLocks::resolveMonitor(Object *Obj, Lookup How) {
  MonitorCache::Ref M;
  // Fast check without the cache lock: a hot word never reverts.
  uint32_t Word = Obj->lockWord().load(std::memory_order_acquire);
  if (isHotWord(Word)) {
    M.Lock = &HotTable[hotIdOf(Word)]->Lock;
  } else {
    if (TL_FAILPOINT(HotLocksPromoteRace)) // Let a promotion land here.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Front HotFront{*this, Obj};
    M = Cache.resolveMonitor(Obj, How, HotFront);
  }
  if (M.Lock && How != Lookup::Peek)
    (M.Pinned ? CachePathOps : HotPathOps).increment();
  return M;
}

bool HotLocks::isHot(const Object *Obj) const {
  return isHotWord(Obj->lockWord().load(std::memory_order_acquire));
}

size_t HotLocks::freeHotSlots() const {
  return HotTable.size() - NextHotSlot.load(std::memory_order_relaxed);
}

uint32_t HotLocks::displacedHeader(const Object *Obj) const {
  uint32_t Word = Obj->lockWord().load(std::memory_order_acquire);
  assert(isHotWord(Word) && "object is not hot");
  return HotTable[hotIdOf(Word)]->DisplacedHeader;
}

HotLocksStats HotLocks::stats() const {
  HotLocksStats S;
  S.HotPathOps = HotPathOps.value();
  S.CachePathOps = CachePathOps.value();
  S.Promotions = NextHotSlot.load(std::memory_order_relaxed);
  S.Cache = Cache.stats();
  return S;
}
