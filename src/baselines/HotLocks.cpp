//===- baselines/HotLocks.cpp - IBM JDK 1.1.2 hot locks model -------------===//

#include "baselines/HotLocks.h"

#include "support/JsonWriter.h"

#include <cassert>

using namespace thinlocks;

HotLocks::HotLocks(size_t NumHotLocks, uint64_t PromotionThreshold,
                   size_t PoolSize)
    : PromotionThreshold(PromotionThreshold) {
  assert(NumHotLocks > 0 && "need at least one hot lock");
  assert(PoolSize > 0 && "monitor pool must not be empty");
  HotTable.reserve(NumHotLocks);
  for (size_t I = 0; I < NumHotLocks; ++I)
    HotTable.push_back(std::make_unique<HotSlot>());
  Pool.reserve(PoolSize);
  FreeList.reserve(PoolSize);
  for (size_t I = 0; I < PoolSize; ++I) {
    Pool.push_back(std::make_unique<CacheEntry>());
    FreeList.push_back(Pool.back().get());
  }
}

HotLocks::~HotLocks() = default;

bool HotLocks::isIdle(const CacheEntry &Entry) {
  return Entry.Pins == 0 && Entry.Lock.ownerIndex() == 0 &&
         Entry.Lock.entryQueueLength() == 0 && Entry.Lock.waitSetSize() == 0;
}

size_t HotLocks::sweepLocked() {
  ++Counters.Sweeps;
  size_t Reclaimed = 0;
  for (auto It = Map.begin(); It != Map.end();) {
    ++Counters.SweepScannedEntries;
    CacheEntry *Entry = It->second;
    if (isIdle(*Entry)) {
      Entry->Key = nullptr;
      Entry->UseCount = 0;
      FreeList.push_back(Entry);
      It = Map.erase(It);
      ++Reclaimed;
    } else {
      ++It;
    }
  }
  return Reclaimed;
}

void HotLocks::resolve(Object *Obj, bool CreateIfMissing,
                       bool AllowPromotion, HotSlot *&Hot,
                       CacheEntry *&Entry) {
  Hot = nullptr;
  Entry = nullptr;

  // Fast check without the cache lock: a hot word never reverts.
  uint32_t Word = Obj->lockWord().load(std::memory_order_acquire);
  if (isHotWord(Word)) {
    Hot = HotTable[hotIdOf(Word)].get();
    return;
  }

  std::lock_guard<std::mutex> Guard(CacheMutex);
  // Re-check under the lock: a promotion may have raced ahead of us
  // (promotions happen only under CacheMutex).
  Word = Obj->lockWord().load(std::memory_order_acquire);
  if (isHotWord(Word)) {
    Hot = HotTable[hotIdOf(Word)].get();
    return;
  }

  auto It = Map.find(Obj);
  CacheEntry *Found = nullptr;
  if (It != Map.end()) {
    Found = It->second;
    ++Found->UseCount;
  } else {
    if (!CreateIfMissing)
      return;
    if (FreeList.empty()) {
      sweepLocked();
      if (FreeList.empty()) {
        Pool.push_back(std::make_unique<CacheEntry>());
        FreeList.push_back(Pool.back().get());
      }
    }
    Found = FreeList.back();
    FreeList.pop_back();
    Found->Key = Obj;
    Found->UseCount = 1;
    Map.emplace(Obj, Found);
  }

  // Promotion: frequency threshold crossed, a hot slot is free, and the
  // monitor is momentarily idle so no state needs transferring.
  if (AllowPromotion && Found->UseCount >= PromotionThreshold &&
      NextHotSlot < HotTable.size() && isIdle(*Found)) {
    uint32_t Id = static_cast<uint32_t>(NextHotSlot++);
    HotSlot *Slot = HotTable[Id].get();
    Slot->Key = Obj;
    Slot->DisplacedHeader = Word;
    Obj->lockWord().store(makeHotWord(Id, Word), std::memory_order_release);
    // The idle cache entry is recycled immediately.
    Found->Key = nullptr;
    Found->UseCount = 0;
    FreeList.push_back(Found);
    Map.erase(Obj);
    ++Counters.Promotions;
    Hot = Slot;
    return;
  }

  ++Found->Pins;
  Entry = Found;
}

void HotLocks::unpin(CacheEntry *Entry) {
  std::lock_guard<std::mutex> Guard(CacheMutex);
  assert(Entry->Pins > 0 && "unpin without pin");
  --Entry->Pins;
}

void HotLocks::lock(Object *Obj, const ThreadContext &Thread) {
  HotSlot *Hot = nullptr;
  CacheEntry *Entry = nullptr;
  resolve(Obj, /*CreateIfMissing=*/true, /*AllowPromotion=*/true, Hot,
          Entry);
  if (Hot) {
    HotPathOps.increment();
    Hot->Lock.lock(Thread);
    return;
  }
  CachePathOps.increment();
  Entry->Lock.lock(Thread);
  unpin(Entry);
}

void HotLocks::unlock(Object *Obj, const ThreadContext &Thread) {
  [[maybe_unused]] bool Ok = unlockChecked(Obj, Thread);
  assert(Ok && "unlock of a monitor the thread does not own");
}

bool HotLocks::unlockChecked(Object *Obj, const ThreadContext &Thread) {
  HotSlot *Hot = nullptr;
  CacheEntry *Entry = nullptr;
  resolve(Obj, /*CreateIfMissing=*/false, /*AllowPromotion=*/false, Hot,
          Entry);
  if (Hot) {
    HotPathOps.increment();
    return Hot->Lock.unlockChecked(Thread);
  }
  if (!Entry)
    return false;
  CachePathOps.increment();
  bool Ok = Entry->Lock.unlockChecked(Thread);
  unpin(Entry);
  return Ok;
}

bool HotLocks::tryLock(Object *Obj, const ThreadContext &Thread) {
  HotSlot *Hot = nullptr;
  CacheEntry *Entry = nullptr;
  resolve(Obj, /*CreateIfMissing=*/true, /*AllowPromotion=*/true, Hot,
          Entry);
  if (Hot) {
    HotPathOps.increment();
    return Hot->Lock.tryLock(Thread);
  }
  CachePathOps.increment();
  bool Ok = Entry->Lock.tryLock(Thread);
  unpin(Entry);
  return Ok;
}

TimedLockStatus HotLocks::tryLockFor(Object *Obj, const ThreadContext &Thread,
                                     int64_t TimeoutNanos) {
  HotSlot *Hot = nullptr;
  CacheEntry *Entry = nullptr;
  resolve(Obj, /*CreateIfMissing=*/true, /*AllowPromotion=*/true, Hot,
          Entry);
  FatLock *Lock = Hot ? &Hot->Lock : &Entry->Lock;
  if (Hot)
    HotPathOps.increment();
  else
    CachePathOps.increment();
  FatLock::TimedResult Result = Lock->lockIfLiveFor(Thread, TimeoutNanos);
  if (Entry)
    unpin(Entry);
  // Hot slots and pinned cache entries are never retired mid-operation,
  // and this baseline has no waits-for graph, so any failure degrades to
  // TimedOut (see degradeToTimedOut in core/LockProtocol.h).
  return degradeToTimedOut(Result == FatLock::TimedResult::Acquired);
}

bool HotLocks::holdsLock(Object *Obj, const ThreadContext &Thread) const {
  uint32_t Word = Obj->lockWord().load(std::memory_order_acquire);
  if (isHotWord(Word))
    return HotTable[hotIdOf(Word)]->Lock.heldBy(Thread);
  std::lock_guard<std::mutex> Guard(CacheMutex);
  auto It = Map.find(Obj);
  if (It == Map.end())
    return false;
  return It->second->Lock.heldBy(Thread);
}

uint32_t HotLocks::lockDepth(Object *Obj, const ThreadContext &Thread) const {
  uint32_t Word = Obj->lockWord().load(std::memory_order_acquire);
  if (isHotWord(Word)) {
    FatLock &Lock = HotTable[hotIdOf(Word)]->Lock;
    return Lock.heldBy(Thread) ? Lock.holdCount() : 0;
  }
  std::lock_guard<std::mutex> Guard(CacheMutex);
  auto It = Map.find(Obj);
  if (It == Map.end())
    return 0;
  return It->second->Lock.heldBy(Thread) ? It->second->Lock.holdCount() : 0;
}

WaitStatus HotLocks::wait(Object *Obj, const ThreadContext &Thread,
                          int64_t TimeoutNanos) {
  HotSlot *Hot = nullptr;
  CacheEntry *Entry = nullptr;
  resolve(Obj, /*CreateIfMissing=*/false, /*AllowPromotion=*/false, Hot,
          Entry);
  FatLock *Lock = nullptr;
  if (Hot) {
    Lock = &Hot->Lock;
  } else if (Entry) {
    Lock = &Entry->Lock;
  } else {
    return WaitStatus::NotOwner;
  }
  if (!Lock->heldBy(Thread)) {
    if (Entry)
      unpin(Entry);
    return WaitStatus::NotOwner;
  }
  FatLock::WaitResult Result = Lock->wait(Thread, TimeoutNanos);
  if (Entry)
    unpin(Entry);
  return Result == FatLock::WaitResult::Notified ? WaitStatus::Notified
                                                 : WaitStatus::TimedOut;
}

NotifyStatus HotLocks::notify(Object *Obj, const ThreadContext &Thread) {
  HotSlot *Hot = nullptr;
  CacheEntry *Entry = nullptr;
  resolve(Obj, /*CreateIfMissing=*/false, /*AllowPromotion=*/false, Hot,
          Entry);
  FatLock *Lock = Hot ? &Hot->Lock : (Entry ? &Entry->Lock : nullptr);
  if (!Lock)
    return NotifyStatus::NotOwner;
  if (!Lock->heldBy(Thread)) {
    if (Entry)
      unpin(Entry);
    return NotifyStatus::NotOwner;
  }
  Lock->notify(Thread);
  if (Entry)
    unpin(Entry);
  return NotifyStatus::Ok;
}

NotifyStatus HotLocks::notifyAll(Object *Obj, const ThreadContext &Thread) {
  HotSlot *Hot = nullptr;
  CacheEntry *Entry = nullptr;
  resolve(Obj, /*CreateIfMissing=*/false, /*AllowPromotion=*/false, Hot,
          Entry);
  FatLock *Lock = Hot ? &Hot->Lock : (Entry ? &Entry->Lock : nullptr);
  if (!Lock)
    return NotifyStatus::NotOwner;
  if (!Lock->heldBy(Thread)) {
    if (Entry)
      unpin(Entry);
    return NotifyStatus::NotOwner;
  }
  Lock->notifyAll(Thread);
  if (Entry)
    unpin(Entry);
  return NotifyStatus::Ok;
}

bool HotLocks::isHot(const Object *Obj) const {
  return isHotWord(Obj->lockWord().load(std::memory_order_acquire));
}

size_t HotLocks::freeHotSlots() const {
  std::lock_guard<std::mutex> Guard(CacheMutex);
  return HotTable.size() - NextHotSlot;
}

uint32_t HotLocks::displacedHeader(const Object *Obj) const {
  uint32_t Word = Obj->lockWord().load(std::memory_order_acquire);
  assert(isHotWord(Word) && "object is not hot");
  return HotTable[hotIdOf(Word)]->DisplacedHeader;
}

HotLocksStats HotLocks::stats() const {
  std::lock_guard<std::mutex> Guard(CacheMutex);
  HotLocksStats Snapshot = Counters;
  Snapshot.HotPathOps = HotPathOps.value();
  Snapshot.CachePathOps = CachePathOps.value();
  return Snapshot;
}

std::string HotLocks::statsJson() const {
  HotLocksStats S = stats();
  return JsonWriter()
      .beginObject()
      .field("hot_path_ops", S.HotPathOps)
      .field("cache_path_ops", S.CachePathOps)
      .field("promotions", S.Promotions)
      .field("sweeps", S.Sweeps)
      .field("sweep_scanned", S.SweepScannedEntries)
      .end()
      .take();
}
