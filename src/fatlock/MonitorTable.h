//===- fatlock/MonitorTable.h - 23-bit monitor index table -----*- C++ -*-===//
///
/// \file
/// Maps the 23-bit monitor indices stored in inflated lock words to fat
/// lock pointers (paper §2.3: "We maintain the table which maps inflated
/// monitor indices to fat locks", Figure 2(b)).  The paper contrasts this
/// against the JDK's monitor cache: resolving an index is "simply obtained
/// by shifting the monitor index to the right and indexing into the
/// vector" — no global lock, no hashing.  get() here is lock-free.
///
/// Failure-mode engineering on top of the paper's design:
///  - the index space is finite (capacity is configurable, default the
///    full 23 bits); when allocate() exhausts it the caller degrades to a
///    single pre-allocated *emergency monitor* shared by every object
///    that inflates after exhaustion.  Mutual exclusion is preserved
///    (coarsened); the event is counted, never undefined behavior.
///  - get()/resolve() validate indices in every build mode and terminate
///    with the bad index (and, for resolve, the whole lock word) instead
///    of indexing garbage under NDEBUG.
///
/// Deflation (an extension; the paper's inflation is permanent) returns
/// an object to thin through one call here, finishDeflation(), whether
/// the monitor's last owner retired it or the adaptive engine's scan
/// did (deflateIfQuiescent()).
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_FATLOCK_MONITORTABLE_H
#define THINLOCKS_FATLOCK_MONITORTABLE_H

#include "core/LockWord.h"
#include "fatlock/FatLock.h"
#include "support/Mutex.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace thinlocks {

class Object;

/// Growable, chunked index -> FatLock* table.  Lookup is wait-free.
/// Allocation is *sharded*: threads draw indices from per-shard block
/// caches with a CAS, and only block refills (one per AllocBlockSize
/// allocations per shard) take the central mutex — inflation storms no
/// longer serialize on a single lock.  Index 0 is reserved (never
/// allocated) so a zeroed lock word can never accidentally name a
/// monitor.
class MonitorTable {
public:
  /// Indices must fit the 23 bits available in an inflated lock word.
  static constexpr uint32_t MaxMonitorIndex = (1u << 23) - 1;
  static constexpr uint32_t SegmentSizeLog2 = 10;
  static constexpr uint32_t SegmentSize = 1u << SegmentSizeLog2;
  static constexpr uint32_t NumSegments =
      (MaxMonitorIndex + SegmentSize) / SegmentSize;
  /// Allocation shards (power of two; threads map in by stripe slot).
  static constexpr uint32_t NumAllocShards = 16;
  /// Indices reserved from the central cursor per shard refill.  Refills
  /// clamp to the remaining capacity, and exhaustion handling drains
  /// every shard's remainder before reporting failure, so blocking never
  /// costs usable indices.
  static constexpr uint32_t AllocBlockSize = 64;

  /// \param Capacity highest index this table will use.  allocate() hands
  /// out 1 .. Capacity-1; index Capacity is the pre-allocated emergency
  /// monitor.  Tests shrink this to exercise exhaustion without 8M
  /// allocations.
  explicit MonitorTable(uint32_t Capacity = MaxMonitorIndex);
  ~MonitorTable();

  MonitorTable(const MonitorTable &) = delete;
  MonitorTable &operator=(const MonitorTable &) = delete;

  /// Creates a fresh FatLock and \returns its index (>= 1), or 0 if the
  /// index space is exhausted (each failure is counted; see
  /// exhaustionEvents()).  The monitor stays alive for the table's
  /// lifetime: the paper's discipline is that an inflated lock "remains
  /// inflated for the lifetime of the object", and even under the
  /// deflation extension a retired monitor's index is never reused (a
  /// stale fat word must keep resolving to the *retired* monitor so its
  /// holder learns to retry).
  ///
  /// Common case is lock-free: one CAS on the caller's shard cursor.
  /// The central mutex is taken only to refill an empty shard.  A single
  /// thread always sees consecutive indices (its shard's blocks are
  /// reserved in order), and failure is exact: allocate() returns 0 only
  /// after the central cursor *and* every shard remainder are drained,
  /// counting one exhaustion event per failed call.
  uint32_t allocate() TL_EXCLUDES(Mu);

  /// \returns the monitor for \p Index.  Wait-free.  A zero,
  /// out-of-range, or never-allocated index is an invariant violation and
  /// terminates with a diagnostic in every build mode.
  FatLock *get(uint32_t Index) const;

  /// Decodes and validates an *inflated* lock word and \returns its
  /// monitor.  A thin word or a word naming an unallocated index is
  /// corruption: the full word and the decoded index are reported before
  /// terminating, in every build mode.
  FatLock *resolve(uint32_t LockWord) const;

  /// \returns the index of the shared last-resort monitor every
  /// post-exhaustion inflation maps to.  Always allocated, and never
  /// retired (see mayRetire()).
  uint32_t emergencyIndex() const { return Capacity; }

  /// \returns whether the monitor that \p FatWord names may ever retire:
  /// every monitor but the emergency one, which an unknown number of
  /// lock words may name, so deflation must not recycle it.  Both
  /// retirement sites ask: ThinLockImpl::unlockChecked before passing
  /// MayRetire to FatLock::unlock, and deflateIfQuiescent().
  bool mayRetire(uint32_t FatWord) const {
    return lockword::monitorIndexOf(FatWord) != emergencyIndex();
  }

  /// \returns the configured capacity (largest index in use).
  uint32_t capacity() const { return Capacity; }

  /// \returns allocated monitors as a fraction of capacity — the
  /// occupancy signal admission control watches.  Monotone by design:
  /// indices are never reused (see allocate()), so occupancy only ever
  /// rises; the *reactive* exhaustion signals (exhaustionEvents, typed
  /// errors, emergency inflations) are what recede when pressure lifts.
  double occupancy() const {
    return static_cast<double>(LiveCount.load(std::memory_order_relaxed)) /
           static_cast<double>(Capacity);
  }

  /// \returns how many monitors have been allocated (excluding the
  /// emergency monitor).
  uint32_t liveMonitorCount() const {
    return LiveCount.load(std::memory_order_relaxed);
  }

  /// \returns how many allocate() calls failed for exhaustion (including
  /// injected exhaustion).
  uint64_t exhaustionEvents() const {
    return ExhaustionEvents.load(std::memory_order_relaxed);
  }

  /// The tail of every deflation, run by whoever retired the monitor
  /// that \p StaleWord, \p Obj's fat lock word, names (the final owner
  /// after FatLock::unlock's RetiredNow, or deflateIfQuiescent()): stores
  /// the word's header bits back as \p Obj's thin-unlocked word, wakes
  /// the threads lot-parked on \p Obj waiting for that store, and counts
  /// the retirement.  The retired index is never reused: threads may
  /// still hold the stale word and must resolve it to the *retired*
  /// monitor to learn they should re-read.
  void finishDeflation(Object *Obj, uint32_t StaleWord);

  /// Deflation by a third party that owns nothing (the adaptive engine's
  /// speculative scan): if \p Obj's lock word is fat, its monitor may
  /// retire (not the emergency monitor) and is quiescent
  /// (FatLock::retireIfQuiescent), retires the monitor and runs
  /// finishDeflation().
  /// \returns whether \p Obj went back to thin.
  bool deflateIfQuiescent(Object *Obj);

  /// \returns how many monitors have been retired by deflation.  Indices
  /// are never reused, so this is a ledger, not a free-list: occupancy()
  /// stays monotone and this counter says how much of it is retired
  /// husks.
  uint64_t retirementEvents() const {
    return RetirementEvents.load(std::memory_order_relaxed);
  }

private:
  using Segment = std::array<std::atomic<FatLock *>, SegmentSize>;

  /// A shard's cache of reserved indices, packed as (End << 32) | Next so
  /// one CAS both claims an index and excludes other takers.  Next == End
  /// means empty.  Padded: the whole point is that concurrent allocators
  /// touch distinct cache lines.
  struct alignas(64) AllocShard {
    std::atomic<uint64_t> Cursor{0};
  };

  /// refill() result meaning "another thread refilled the shard while we
  /// waited for the mutex — retry the lock-free take".
  static constexpr uint32_t RetryTake = ~0u;

  /// Ensures the segment covering \p Index exists.
  Segment *segmentFor(uint32_t Index) TL_REQUIRES(Mu);

  /// Takes the mutex and reserves a fresh block for \p Shard, returning
  /// the block's first index for the caller.  Returns RetryTake if the
  /// shard was refilled concurrently, or 0 (after counting an exhaustion
  /// event) if the central cursor and every shard remainder are empty.
  uint32_t refill(AllocShard &Shard) TL_EXCLUDES(Mu);

  /// Creates the FatLock for a claimed \p Index and makes it visible to
  /// the wait-free readers.  Lock-free; the index's segment was created
  /// by the refill that reserved its block.
  uint32_t publish(uint32_t Index);

  mutable Mutex Mu;
  // Atomic (not guarded): wait-free readers resolve through Segments.
  std::array<std::atomic<Segment *>, NumSegments> Segments;
  std::vector<std::unique_ptr<Segment>> SegmentStorage TL_GUARDED_BY(Mu);
  std::array<AllocShard, NumAllocShards> Shards;
  uint32_t Capacity;
  uint32_t NextIndex TL_GUARDED_BY(Mu) = 1;
  std::atomic<uint32_t> LiveCount{0};
  std::atomic<uint64_t> ExhaustionEvents{0};
  std::atomic<uint64_t> RetirementEvents{0};
};

} // namespace thinlocks

#endif // THINLOCKS_FATLOCK_MONITORTABLE_H
