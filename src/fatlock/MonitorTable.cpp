//===- fatlock/MonitorTable.cpp - 23-bit monitor index table --------------===//

#include "fatlock/MonitorTable.h"

#include "core/LockWord.h"
#include "heap/Object.h"
#include "park/ParkingLot.h"
#include "support/FailPoint.h"
#include "support/Fatal.h"
#include "support/ThreadStripe.h"

#include <algorithm>
#include <cassert>

using namespace thinlocks;

static_assert((MonitorTable::NumAllocShards &
               (MonitorTable::NumAllocShards - 1)) == 0,
              "shard selection masks the stripe slot");

MonitorTable::MonitorTable(uint32_t RequestedCapacity)
    : Capacity(RequestedCapacity) {
  if (Capacity < 2 || Capacity > MaxMonitorIndex)
    fatalError("MonitorTable capacity %u out of range [2, %u]", Capacity,
               MaxMonitorIndex);
  for (auto &Slot : Segments)
    Slot.store(nullptr, std::memory_order_relaxed);

  // The emergency monitor occupies the top index from birth so that a lock
  // word minted during exhaustion resolves through the same wait-free path
  // as any other (mayRetire() keeps deflation off it).
  LockGuard Guard(Mu);
  Segment *Seg = segmentFor(Capacity);
  (*Seg)[Capacity & (SegmentSize - 1)].store(new FatLock(),
                                             std::memory_order_release);
}

MonitorTable::~MonitorTable() {
  // Monitors are owned by their table slots (including the emergency
  // monitor, which lives at index Capacity like any other).
  for (auto &Slot : Segments) {
    Segment *Seg = Slot.load(std::memory_order_relaxed);
    if (!Seg)
      continue;
    for (auto &Entry : *Seg)
      delete Entry.load(std::memory_order_relaxed);
  }
}

MonitorTable::Segment *MonitorTable::segmentFor(uint32_t Index) {
  uint32_t SegmentIndex = Index >> SegmentSizeLog2;
  Segment *Seg = Segments[SegmentIndex].load(std::memory_order_relaxed);
  if (!Seg) {
    auto Fresh = std::make_unique<Segment>();
    for (auto &Entry : *Fresh)
      Entry.store(nullptr, std::memory_order_relaxed);
    Seg = Fresh.get();
    SegmentStorage.push_back(std::move(Fresh));
    Segments[SegmentIndex].store(Seg, std::memory_order_release);
  }
  return Seg;
}

uint32_t MonitorTable::publish(uint32_t Index) {
  Segment *Seg =
      Segments[Index >> SegmentSizeLog2].load(std::memory_order_acquire);
  assert(Seg && "index handed out before its segment was created");
  FatLock *Lock = new FatLock();
  (*Seg)[Index & (SegmentSize - 1)].store(Lock, std::memory_order_release);
  LiveCount.fetch_add(1, std::memory_order_relaxed);
  return Index;
}

uint32_t MonitorTable::allocate() {
  if (TL_FAILPOINT(MonitorTableExhausted)) {
    ExhaustionEvents.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  AllocShard &Shard =
      Shards[currentThreadStripe().slot() & (NumAllocShards - 1)];
  for (;;) {
    uint64_t Cursor = Shard.Cursor.load(std::memory_order_acquire);
    uint32_t Next = static_cast<uint32_t>(Cursor);
    uint32_t End = static_cast<uint32_t>(Cursor >> 32);
    if (Next < End) {
      // Claim Next by bumping the packed low half.  acquire on success
      // pairs with the refiller's release store so the pre-created
      // segment for this index is visible to publish().
      if (Shard.Cursor.compare_exchange_weak(Cursor, Cursor + 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed))
        return publish(Next);
      continue;
    }
    uint32_t Index = refill(Shard);
    if (Index == RetryTake)
      continue;
    if (Index == 0)
      return 0;
    return publish(Index);
  }
}

uint32_t MonitorTable::refill(AllocShard &Shard) {
  LockGuard Guard(Mu);
  // Another thread may have refilled this shard while we waited for the
  // mutex; if so the lock-free take will succeed now.
  uint64_t Cursor = Shard.Cursor.load(std::memory_order_relaxed);
  if (static_cast<uint32_t>(Cursor) < static_cast<uint32_t>(Cursor >> 32))
    return RetryTake;

  if (NextIndex < Capacity) {
    uint32_t Block = std::min(AllocBlockSize, Capacity - NextIndex);
    uint32_t First = NextIndex;
    NextIndex += Block;
    // Create every segment the block spans *before* the cursor store:
    // takers claim indices lock-free and must find their segment ready.
    for (uint32_t Index = First >> SegmentSizeLog2,
                  Last = (First + Block - 1) >> SegmentSizeLog2;
         Index <= Last; ++Index)
      segmentFor(Index << SegmentSizeLog2);
    // Keep the first index for the caller; hand the rest to the shard.
    Shard.Cursor.store(
        (static_cast<uint64_t>(First + Block) << 32) | (First + 1),
        std::memory_order_release);
    return First;
  }

  // Central space is gone.  Unused remainders may still sit in other
  // shards' cursors; drain those before declaring exhaustion so a block
  // reservation never leaks indices past Capacity.
  for (AllocShard &Other : Shards) {
    for (;;) {
      uint64_t C = Other.Cursor.load(std::memory_order_acquire);
      uint32_t Next = static_cast<uint32_t>(C);
      uint32_t End = static_cast<uint32_t>(C >> 32);
      if (Next >= End)
        break;
      if (Other.Cursor.compare_exchange_weak(C, C + 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed))
        return Next;
    }
  }
  ExhaustionEvents.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

FatLock *MonitorTable::get(uint32_t Index) const {
  if (Index == 0 || Index > Capacity)
    fatalError("MonitorTable::get: monitor index %u out of range "
               "(capacity %u)",
               Index, Capacity);
  Segment *Seg =
      Segments[Index >> SegmentSizeLog2].load(std::memory_order_acquire);
  FatLock *Lock =
      Seg ? (*Seg)[Index & (SegmentSize - 1)].load(std::memory_order_acquire)
          : nullptr;
  if (!Lock)
    fatalError("MonitorTable::get: monitor index %u was never allocated "
               "(%u live, capacity %u)",
               Index, LiveCount.load(std::memory_order_relaxed), Capacity);
  return Lock;
}

FatLock *MonitorTable::resolve(uint32_t LockWord) const {
  if (!lockword::isFat(LockWord))
    fatalError("corrupt lock word 0x%08x: shape bit says thin but a fat "
               "lock was expected",
               LockWord);
  uint32_t Index =
      (LockWord & lockword::MonitorIndexMask) >> lockword::MonitorIndexShift;
  if (Index == 0 || Index > Capacity)
    fatalError("corrupt lock word 0x%08x: monitor index %u out of range "
               "(capacity %u)",
               LockWord, Index, Capacity);
  Segment *Seg =
      Segments[Index >> SegmentSizeLog2].load(std::memory_order_acquire);
  FatLock *Lock =
      Seg ? (*Seg)[Index & (SegmentSize - 1)].load(std::memory_order_acquire)
          : nullptr;
  if (!Lock)
    fatalError("corrupt lock word 0x%08x: monitor index %u was never "
               "allocated (%u live)",
               LockWord, Index, LiveCount.load(std::memory_order_relaxed));
  return Lock;
}

void MonitorTable::finishDeflation(Object *Obj, uint32_t StaleWord) {
  // Retirement froze the word: the monitor had no owner but the retirer
  // and nobody queued, so this store is its only writer, preserving the
  // owner-only write discipline.
  Obj->lockWord().store(lockword::headerBitsOf(StaleWord),
                        std::memory_order_release);
  // Publish-and-wake: contenders that resolved the stale word bounced
  // off the retired monitor and are lot-parked on the object waiting for
  // exactly this store.
  ParkingLot::global().unparkAll(Obj);
  RetirementEvents.fetch_add(1, std::memory_order_relaxed);
}

bool MonitorTable::deflateIfQuiescent(Object *Obj) {
  uint32_t Value = Obj->lockWord().load(std::memory_order_acquire);
  if (!lockword::isFat(Value) || !mayRetire(Value) ||
      !resolve(Value)->retireIfQuiescent())
    return false;
  finishDeflation(Obj, Value);
  return true;
}
