//===- heap/Heap.cpp - Arena allocator for objects ------------------------===//

#include "heap/Heap.h"

#include "support/MathExtras.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <new>

using namespace thinlocks;

/// One thread's bump region.  Only its owner thread writes it; End and
/// Count are atomics so that walkers and counters on other threads can
/// read them while the owner allocates.  Aligned to a cache line so two
/// owners' bump state never shares one.
struct alignas(64) Heap::Buffer {
  /// The first object starts on an \p Align boundary, so the storage
  /// has room for up to \p Align - 1 bytes of padding before it.
  Buffer(size_t Bytes, size_t Align, uint64_t Owner, uint64_t Seed)
      : Storage(std::make_unique_for_overwrite<char[]>(Bytes + Align - 1)),
        Begin(paddingTo(Storage.get(), Align)), Capacity(Begin + Bytes),
        Owner(Owner), End(Begin), Hashes(Seed) {}

  /// Not zero-filled: pages no object reaches are never touched.
  const std::unique_ptr<char[]> Storage;
  /// Offset of the first object: 0, except after the padding that puts
  /// an array's first object on a cache line.  Walks and byte counts
  /// start here, so they never read the padding.
  const size_t Begin;
  /// Offset objects may fill up to.
  const size_t Capacity;
  /// Token of the only thread that allocates here.
  const uint64_t Owner;
  /// Offset past the last fully constructed object.  The owner's release
  /// store publishes each object; a walker's acquire load bounds its walk.
  std::atomic<size_t> End;
  std::atomic<uint64_t> Count{0};
  /// This buffer's identity-hash stream (owner only).
  SplitMix64 Hashes;

private:
  static size_t paddingTo(const char *At, size_t Align) {
    return (Align - reinterpret_cast<uintptr_t>(At) % Align) % Align;
  }
};

/// Constant-initialized, so the allocation fast path reads it with no
/// guard variable.
struct Heap::Cursor {
  uint64_t HeapId = 0;
  Buffer *Buf = nullptr;
  /// This thread's buffer-owner token, assigned on its first refill.
  uint64_t Thread = 0;
};

thread_local Heap::Cursor Heap::ThisThread;

namespace {

/// Where allocateArray puts an array's first object.
constexpr size_t CacheLineBytes = 64;

// Ids start at 1: a zeroed cursor must match no heap.
std::atomic<uint64_t> NextHeapId{1};
std::atomic<uint64_t> NextThreadToken{1};

size_t objectSize(uint32_t SlotCount) {
  return alignTo(sizeof(Object) + sizeof(uint64_t) * SlotCount,
                 alignof(Object));
}

} // namespace

Heap::Heap(size_t BlockBytes)
    : BlockBytes(BlockBytes),
      Id(NextHeapId.fetch_add(1, std::memory_order_relaxed)) {
  assert(BlockBytes >= 4096 && "block size unreasonably small");
}

Heap::~Heap() = default;

Object *Heap::allocate(const ClassInfo &Class) {
  size_t Size = objectSize(Class.SlotCount);
  Buffer *B = ThisThread.HeapId == Id ? ThisThread.Buf : nullptr;
  // The owner is the only writer of End, so its relaxed load is exact.
  size_t Used = B ? B->End.load(std::memory_order_relaxed) : 0;
  if (TL_UNLIKELY(!B || B->Capacity - Used < Size)) {
    B = refill(Size);
    Used = B->End.load(std::memory_order_relaxed);
  }

  Object *Obj = new (B->Storage.get() + Used) Object(
      Class.Index, Class.SlotCount, static_cast<uint32_t>(B->Hashes.next()));
  std::memset(Obj->slots(), 0, sizeof(uint64_t) * Class.SlotCount);

  B->Count.store(B->Count.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  B->End.store(Used + Size, std::memory_order_release);
  return Obj;
}

Object *Heap::allocateArray(const ClassInfo &Class, size_t Count) {
  assert(Count > 0 && "an array needs at least one object");
  size_t Size = objectSize(Class.SlotCount);
  Buffer *B = nullptr;
  {
    // Full once published, so the thread's next allocate() opens a
    // buffer that walks after this one.
    LockGuard Guard(Mu);
    B = openBuffer(newestOfThisThread(), Size * Count, CacheLineBytes);
  }

  char *First = B->Storage.get() + B->Begin;
  for (size_t I = 0; I < Count; ++I) {
    Object *Obj = new (First + I * Size) Object(
        Class.Index, Class.SlotCount, static_cast<uint32_t>(B->Hashes.next()));
    std::memset(Obj->slots(), 0, sizeof(uint64_t) * Class.SlotCount);
  }

  B->Count.store(Count, std::memory_order_relaxed);
  B->End.store(B->Capacity, std::memory_order_release);
  return reinterpret_cast<Object *>(First);
}

Heap::Buffer *Heap::refill(size_t Size) {
  LockGuard Guard(Mu);
  Buffer *B = newestOfThisThread();
  // The old buffer's tail stays unused: a thread never goes back to an
  // older buffer, so a walk sees its objects in allocation order.
  if (!B || B->Capacity - B->End.load(std::memory_order_relaxed) < Size)
    return openBuffer(B, std::max(Size, BlockBytes), /*Align=*/1);
  ThisThread.HeapId = Id;
  ThisThread.Buf = B;
  return B;
}

Heap::Buffer *Heap::newestOfThisThread() {
  Cursor &C = ThisThread;
  if (C.Thread == 0)
    C.Thread = NextThreadToken.fetch_add(1, std::memory_order_relaxed);
  for (Buffer *B : Newest)
    if (B->Owner == C.Thread)
      return B;
  return nullptr;
}

Heap::Buffer *Heap::openBuffer(Buffer *Old, size_t Bytes, size_t Align) {
  Cursor &C = ThisThread;
  Buffers.push_back(
      std::make_unique<Buffer>(Bytes, Align, C.Thread, Seeds.next()));
  Buffer *B = Buffers.back().get();
  if (Old)
    *std::find(Newest.begin(), Newest.end(), Old) = B;
  else
    Newest.push_back(B);
  C.HeapId = Id;
  C.Buf = B;
  return B;
}

void Heap::forEachObject(
    const std::function<void(const Object &)> &Fn) const {
  std::vector<const Buffer *> Snapshot;
  {
    LockGuard Guard(Mu);
    Snapshot.reserve(Buffers.size());
    for (const std::unique_ptr<Buffer> &B : Buffers)
      Snapshot.push_back(B.get());
  }
  for (const Buffer *B : Snapshot) {
    size_t End = B->End.load(std::memory_order_acquire);
    size_t Offset = B->Begin;
    while (Offset < End) {
      const Object *Obj =
          reinterpret_cast<const Object *>(B->Storage.get() + Offset);
      Fn(*Obj);
      // Objects are laid out back to back; the class registry knows each
      // one's slot count, which determines its footprint.
      Offset += objectSize(Registry.classAt(Obj->classIndex()).SlotCount);
    }
  }
}

uint64_t Heap::objectsAllocated() const {
  LockGuard Guard(Mu);
  uint64_t Sum = 0;
  for (const std::unique_ptr<Buffer> &B : Buffers)
    Sum += B->Count.load(std::memory_order_relaxed);
  return Sum;
}

uint64_t Heap::bytesAllocated() const {
  LockGuard Guard(Mu);
  uint64_t Sum = 0;
  for (const std::unique_ptr<Buffer> &B : Buffers)
    Sum += B->End.load(std::memory_order_relaxed) - B->Begin;
  return Sum;
}
