//===- heap/Heap.h - Arena allocator for objects ---------------*- C++ -*-===//
///
/// \file
/// A simple non-moving arena heap.  There is no garbage collector: the
/// paper's JDK collector is stop-the-world (the lock word relies on the 8
/// shared header bits only changing "when an object is moved", and the
/// collector is not concurrent), so a non-moving arena preserves every
/// invariant the locking code depends on.
///
/// Each allocating thread bumps through its own buffer (DESIGN.md §8,
/// "Per-thread allocation buffers"): the heap mutex is taken only to hand
/// out a buffer, and an allocation publishes its object with one release
/// store, so walkers on other threads see only fully constructed objects.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_HEAP_HEAP_H
#define THINLOCKS_HEAP_HEAP_H

#include "heap/ClassInfo.h"
#include "heap/Object.h"
#include "support/Compiler.h"
#include "support/Mutex.h"
#include "support/SplitMix64.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace thinlocks {

/// Owns object storage and the class registry.  Allocation is
/// thread-safe; objects live until the heap is destroyed.
class Heap {
public:
  /// \param BlockBytes size of each thread's allocation buffer (an object
  /// larger than this gets a buffer of its own).
  explicit Heap(size_t BlockBytes = 1u << 20);
  ~Heap();

  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// \returns the class registry backing this heap's objects.
  ClassRegistry &classes() { return Registry; }
  const ClassRegistry &classes() const { return Registry; }

  /// Allocates an instance of \p Class with zeroed slots.  Takes no lock
  /// unless the calling thread's buffer is missing or full.
  Object *allocate(const ClassInfo &Class);

  /// Visits every object whose allocation completed before the walk
  /// reached its buffer.  Buffers are visited in the order they were
  /// handed out, so one thread's objects come oldest first.  Other
  /// threads may keep allocating meanwhile: the heap mutex is held only
  /// to list the buffers, never while \p Fn runs.  Lock words read during
  /// the walk are racy snapshots (they are atomics; owners may be
  /// mutating them), which is exactly what the lock-census and
  /// index-audit consumers want.
  void forEachObject(const std::function<void(const Object &)> &Fn) const;

  /// \returns the class of \p Obj.
  const ClassInfo &classOf(const Object &Obj) const {
    return Registry.classAt(Obj.classIndex());
  }

  /// \returns total objects ever allocated (paper Table 1, "Objects").
  uint64_t objectsAllocated() const;

  /// \returns total bytes handed out to objects.
  uint64_t bytesAllocated() const;

private:
  struct Buffer;
  struct Cursor;

  /// Makes the calling thread's buffer one with room for \p Size bytes.
  /// Out of line so the allocation fast path stays a leaf.
  TL_NOINLINE Buffer *refill(size_t Size);

  /// The calling thread's most recently used buffer, in any heap.
  static thread_local Cursor ThisThread;

  mutable Mutex Mu;
  ClassRegistry Registry;
  std::vector<std::unique_ptr<Buffer>> Buffers TL_GUARDED_BY(Mu);
  /// Each allocating thread's newest buffer, so a thread that allocated
  /// from another heap in between resumes it instead of opening another.
  std::vector<Buffer *> Newest TL_GUARDED_BY(Mu);
  /// Seeds each new buffer's identity-hash stream.
  SplitMix64 Seeds TL_GUARDED_BY(Mu) = SplitMix64(0x243f6a8885a308d3ull);
  const size_t BlockBytes;
  /// Keys the per-thread cursor.  Unlike the heap's address, an id is
  /// never reused, so a heap built where a dead one stood cannot pick up
  /// the dead heap's buffer.
  const uint64_t Id;
};

} // namespace thinlocks

#endif // THINLOCKS_HEAP_HEAP_H
