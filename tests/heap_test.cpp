//===- tests/heap_test.cpp - Object model and heap tests ------------------===//

#include "heap/Heap.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

using namespace thinlocks;

TEST(ClassRegistry, AssignsSequentialIndices) {
  ClassRegistry Registry;
  const ClassInfo &A = Registry.registerClass("A", 0);
  const ClassInfo &B = Registry.registerClass("B", 3);
  EXPECT_EQ(A.Index, 0u);
  EXPECT_EQ(B.Index, 1u);
  EXPECT_EQ(Registry.size(), 2u);
  EXPECT_EQ(Registry.classAt(1).Name, "B");
  EXPECT_EQ(Registry.classAt(1).SlotCount, 3u);
}

TEST(Heap, ObjectHeaderIsThreeWordsPlusPadding) {
  EXPECT_EQ(sizeof(Object), 16u);
}

TEST(Heap, AllocateInitializesHeader) {
  Heap TheHeap;
  const ClassInfo &Class = TheHeap.classes().registerClass("Point", 2);
  Object *Obj = TheHeap.allocate(Class);
  ASSERT_NE(Obj, nullptr);
  EXPECT_EQ(Obj->classIndex(), Class.Index);
  // The lock field (high 24 bits) starts zeroed = thin + unlocked.
  EXPECT_EQ(Obj->lockWord().load() & 0xFFFFFF00u, 0u);
  // The low byte of the lock word is the low byte of the identity hash.
  EXPECT_EQ(Obj->lockWord().load() & 0xFFu, Obj->identityHash() & 0xFFu);
  EXPECT_EQ(Obj->headerBits(), Obj->identityHash() & 0xFFu);
}

TEST(Heap, SlotsStartZeroedAndReadBack) {
  Heap TheHeap;
  const ClassInfo &Class = TheHeap.classes().registerClass("Trip", 3);
  Object *Obj = TheHeap.allocate(Class);
  for (uint32_t I = 0; I < 3; ++I)
    EXPECT_EQ(Obj->slot(I), 0u);
  Obj->setSlot(0, 42);
  Obj->setSlot(2, UINT64_MAX);
  EXPECT_EQ(Obj->slot(0), 42u);
  EXPECT_EQ(Obj->slot(1), 0u);
  EXPECT_EQ(Obj->slot(2), UINT64_MAX);
}

TEST(Heap, SlotArrayIsAligned) {
  Heap TheHeap;
  const ClassInfo &Class = TheHeap.classes().registerClass("A", 1);
  for (int I = 0; I < 10; ++I) {
    Object *Obj = TheHeap.allocate(Class);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Obj->slots()) % 8, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Obj) % alignof(Object), 0u);
  }
}

TEST(Heap, IdentityHashesMostlyDistinct) {
  Heap TheHeap;
  const ClassInfo &Class = TheHeap.classes().registerClass("H", 0);
  std::set<uint32_t> Hashes;
  for (int I = 0; I < 1000; ++I)
    Hashes.insert(TheHeap.allocate(Class)->identityHash());
  EXPECT_GT(Hashes.size(), 990u);
}

TEST(Heap, CountsAllocations) {
  Heap TheHeap;
  const ClassInfo &Class = TheHeap.classes().registerClass("C", 4);
  EXPECT_EQ(TheHeap.objectsAllocated(), 0u);
  for (int I = 0; I < 25; ++I)
    TheHeap.allocate(Class);
  EXPECT_EQ(TheHeap.objectsAllocated(), 25u);
  EXPECT_GE(TheHeap.bytesAllocated(), 25u * (16 + 4 * 8));
}

TEST(Heap, ObjectsSpanMultipleBlocks) {
  Heap TheHeap(/*BlockBytes=*/4096);
  const ClassInfo &Class = TheHeap.classes().registerClass("Big", 64);
  std::vector<Object *> Objects;
  for (int I = 0; I < 100; ++I)
    Objects.push_back(TheHeap.allocate(Class));
  // All objects remain valid (non-moving heap): spot-check writes.
  for (size_t I = 0; I < Objects.size(); ++I)
    Objects[I]->setSlot(0, I);
  for (size_t I = 0; I < Objects.size(); ++I)
    EXPECT_EQ(Objects[I]->slot(0), I);
}

TEST(Heap, OversizedObjectGetsDedicatedBlock) {
  Heap TheHeap(/*BlockBytes=*/4096);
  const ClassInfo &Class = TheHeap.classes().registerClass("Huge", 2048);
  Object *Obj = TheHeap.allocate(Class);
  Obj->setSlot(2047, 7);
  EXPECT_EQ(Obj->slot(2047), 7u);
}

TEST(Heap, ClassOfResolvesThroughRegistry) {
  Heap TheHeap;
  const ClassInfo &A = TheHeap.classes().registerClass("A", 1);
  const ClassInfo &B = TheHeap.classes().registerClass("B", 2);
  Object *ObjA = TheHeap.allocate(A);
  Object *ObjB = TheHeap.allocate(B);
  EXPECT_EQ(TheHeap.classOf(*ObjA).Name, "A");
  EXPECT_EQ(TheHeap.classOf(*ObjB).Name, "B");
}

TEST(Heap, ConcurrentAllocationProducesDistinctObjects) {
  Heap TheHeap;
  const ClassInfo &Class = TheHeap.classes().registerClass("C", 1);
  constexpr int NumThreads = 4;
  constexpr int PerThread = 2000;
  std::vector<std::vector<Object *>> PerThreadObjects(NumThreads);
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T)
    Workers.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I)
        PerThreadObjects[T].push_back(TheHeap.allocate(Class));
    });
  for (auto &W : Workers)
    W.join();
  std::set<Object *> All;
  for (auto &List : PerThreadObjects)
    for (Object *Obj : List)
      All.insert(Obj);
  EXPECT_EQ(All.size(), static_cast<size_t>(NumThreads) * PerThread);
  EXPECT_EQ(TheHeap.objectsAllocated(),
            static_cast<uint64_t>(NumThreads) * PerThread);
}

//===----------------------------------------------------------------------===//
// Walks, counts and identity hashes over per-thread allocation buffers
//===----------------------------------------------------------------------===//

namespace {

std::vector<const Object *> walk(const Heap &TheHeap) {
  std::vector<const Object *> Seen;
  TheHeap.forEachObject([&](const Object &Obj) { Seen.push_back(&Obj); });
  return Seen;
}

} // namespace

TEST(Heap, ForEachObjectVisitsEachObjectOnceInAllocationOrder) {
  Heap TheHeap(/*BlockBytes=*/4096);
  const ClassInfo &Small = TheHeap.classes().registerClass("Small", 2);
  const ClassInfo &Big = TheHeap.classes().registerClass("Big", 64);
  const ClassInfo &Huge = TheHeap.classes().registerClass("Huge", 2048);
  std::vector<const Object *> Allocated;
  uint64_t Bytes = 0;
  auto Allocate = [&](const ClassInfo &Class) {
    Allocated.push_back(TheHeap.allocate(Class));
    Bytes += sizeof(Object) + sizeof(uint64_t) * Class.SlotCount;
  };
  // Several 4 KiB refills, with an object larger than a whole buffer in
  // the middle of them.
  for (int I = 0; I < 200; ++I)
    Allocate(I % 7 == 0 ? Big : Small);
  Allocate(Huge);
  for (int I = 0; I < 100; ++I)
    Allocate(I % 5 == 0 ? Big : Small);

  EXPECT_EQ(walk(TheHeap), Allocated);
  EXPECT_EQ(TheHeap.objectsAllocated(), Allocated.size());
  EXPECT_EQ(TheHeap.bytesAllocated(), Bytes);
}

TEST(Heap, WalkDuringConcurrentAllocationSeesOnlyConstructedObjects) {
  Heap TheHeap(/*BlockBytes=*/4096);
  // Different footprints: a walk that read a half-built header would
  // step to the wrong offset and derail.
  std::vector<const ClassInfo *> Classes;
  for (uint32_t Slots : {0u, 1u, 5u, 17u})
    Classes.push_back(&TheHeap.classes().registerClass("W", Slots));
  uint32_t NumClasses = TheHeap.classes().size();

  constexpr int NumThreads = 4;
  constexpr int PerThread = 5000;
  std::atomic<int> Running{NumThreads};
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T)
    Workers.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I)
        TheHeap.allocate(*Classes[(I + T) % Classes.size()]);
      Running.fetch_sub(1, std::memory_order_release);
    });

  uint64_t Walks = 0, Bad = 0;
  do {
    TheHeap.forEachObject([&](const Object &Obj) {
      bool Constructed =
          Obj.classIndex() < NumClasses &&
          Obj.headerBits() == (Obj.identityHash() & 0xFFu) &&
          (Obj.lockWord().load(std::memory_order_relaxed) & 0xFFu) ==
              Obj.headerBits();
      Bad += Constructed ? 0 : 1;
    });
    EXPECT_LE(TheHeap.objectsAllocated(),
              static_cast<uint64_t>(NumThreads) * PerThread);
    ++Walks;
  } while (Running.load(std::memory_order_acquire) != 0);
  for (auto &W : Workers)
    W.join();

  EXPECT_EQ(Bad, 0u) << "over " << Walks << " walks";
  EXPECT_EQ(TheHeap.objectsAllocated(),
            static_cast<uint64_t>(NumThreads) * PerThread);
  EXPECT_EQ(walk(TheHeap).size(), TheHeap.objectsAllocated());
}

TEST(Heap, SameSingleThreadedSequenceGivesSameIdentityHashes) {
  // Three classes of different sizes, and enough objects to cross
  // several 4 KiB refills.
  constexpr int Count = 600;
  struct Replay {
    Heap TheHeap{4096};
    std::vector<const ClassInfo *> Classes;
    std::vector<uint32_t> Hashes;
    Replay() {
      for (uint32_t Slots : {0u, 4u, 8u})
        Classes.push_back(&TheHeap.classes().registerClass("S", Slots));
    }
    void step(int I) {
      Hashes.push_back(TheHeap.allocate(*Classes[I % 3])->identityHash());
    }
  };

  Replay Alone;
  for (int I = 0; I < Count; ++I)
    Alone.step(I);
  // The same sequence on two fresh heaps this thread alternates between:
  // each resumes its own buffer, so neither hash stream is disturbed.
  Replay First, Second;
  for (int I = 0; I < Count; ++I) {
    First.step(I);
    Second.step(I);
  }

  EXPECT_EQ(First.Hashes, Alone.Hashes);
  EXPECT_EQ(Second.Hashes, Alone.Hashes);
  std::set<uint32_t> Distinct(Alone.Hashes.begin(), Alone.Hashes.end());
  EXPECT_GT(Distinct.size(), static_cast<size_t>(Count) - 5);
}

TEST(Heap, HeapRebuiltAtSameAddressSeesOnlyItsOwnObjects) {
  // thinbench and bench_fig5 declare a Heap inside a loop: each
  // iteration's heap sits where the previous, destroyed one did, and the
  // thread's buffer from that dead heap still has room.
  const Heap *FirstAddress = nullptr;
  for (uint64_t Round = 1; Round <= 5; ++Round) {
    Heap TheHeap;
    if (!FirstAddress)
      FirstAddress = &TheHeap;
    ASSERT_EQ(&TheHeap, FirstAddress) << "test premise: same address";
    const ClassInfo &Class = TheHeap.classes().registerClass("R", 1);
    std::vector<const Object *> Allocated;
    for (uint64_t I = 0; I < Round * 10; ++I)
      Allocated.push_back(TheHeap.allocate(Class));
    EXPECT_EQ(TheHeap.objectsAllocated(), Allocated.size());
    EXPECT_EQ(walk(TheHeap), Allocated);
  }
}
