//===- obs/LockEventCollector.h - Ring drain + hot-lock profiler *- C++ -*-===//
///
/// \file
/// The sampling half of the observability layer: a collector that drains
/// every thread's EventRing through the registry and folds the events
/// into (a) a bounded retained timeline for the exporters and (b) a
/// per-object aggregate — the hot-lock profile.  The paper's locking
/// characterization says synchronization concentrates on a handful of
/// hot objects; topLocks() is the table that shows which ones, ranked by
/// cumulative blocked time (the cost that actually hurts), with acquire
/// and inflation counts, and the deepest entry queue seen.
///
/// drain() may be called from a sampling thread on any cadence, or once
/// at the end of a run; it serializes itself, so the single-collector
/// contract of EventRing::drain holds no matter how many threads poke
/// the collector.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_OBS_LOCKEVENTCOLLECTOR_H
#define THINLOCKS_OBS_LOCKEVENTCOLLECTOR_H

#include "obs/LockEvents.h"
#include "support/Mutex.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace thinlocks {

class ClassRegistry;
class ThreadRegistry;

namespace obs {

/// Aggregated profile of one synchronized object.
struct HotLockEntry {
  uint64_t ObjectAddr = 0;
  uint32_t ClassIndex = 0;
  uint64_t ContendedAcquires = 0;
  uint64_t Inflations = 0;
  uint64_t Deflations = 0;
  uint64_t Parks = 0;
  uint64_t Waits = 0;
  uint64_t Notifies = 0;
  /// Cumulative nanoseconds threads spent blocked acquiring this object
  /// (the ContendedAcquire durations).
  uint64_t BlockedNanos = 0;
  /// Deepest fat-lock entry queue observed at any acquisition.
  uint64_t MaxQueueDepth = 0;
};

/// Per-class rollup of the hot-lock profile: what every instance of one
/// class cost, plus how many distinct profiled objects contributed.
/// Events are attributed by the class index they were recorded with, so
/// when an address is recycled into a new class the old class keeps the
/// history it actually caused and the new class starts clean (the
/// distinct-object count bumps again for the new incarnation).
struct HotClassEntry {
  uint32_t ClassIndex = 0;
  /// Distinct profiled objects seen for this class (recycled addresses
  /// count once per incarnation).
  uint64_t Objects = 0;
  uint64_t ContendedAcquires = 0;
  uint64_t Inflations = 0;
  uint64_t Deflations = 0;
  uint64_t Parks = 0;
  uint64_t Waits = 0;
  uint64_t Notifies = 0;
  uint64_t BlockedNanos = 0;
  uint64_t MaxQueueDepth = 0;
};

class LockEventCollector {
public:
  /// \param Registry whose threads' rings to drain.
  /// \param MaxRetainedEvents cap on the timeline kept for exporters;
  /// events beyond it still feed the aggregate but are not retained
  /// (and are counted by droppedEvents()).
  explicit LockEventCollector(ThreadRegistry &Registry,
                              size_t MaxRetainedEvents = 1u << 20);

  LockEventCollector(const LockEventCollector &) = delete;
  LockEventCollector &operator=(const LockEventCollector &) = delete;

  /// Drains every ring once.  Safe from any thread; concurrent calls
  /// serialize.  \returns the number of events consumed this pass.
  size_t drain() TL_EXCLUDES(Mu);

  /// \returns a copy of the retained timeline (drain() first for
  /// freshness), ordered by thread and then by record order.
  std::vector<LockEvent> events() const TL_EXCLUDES(Mu);

  /// \returns the total number of events folded into the aggregate.
  uint64_t totalEvents() const TL_EXCLUDES(Mu);

  /// \returns events lost to ring overruns plus retention-cap overflow.
  uint64_t droppedEvents() const TL_EXCLUDES(Mu);

  /// \returns the top \p N objects by cumulative blocked time (ties
  /// broken by contended-acquire count, then by inflations, then by
  /// address ascending).
  ///
  /// All three ranking keys only grow, so a row outside the last
  /// ranking's top K that has not been folded since cannot have
  /// overtaken any row inside it.  The collector keeps that ranking
  /// (K = the largest N asked so far) and ranks only it plus the rows
  /// folded since: a call costs K plus those rows, not the profile.
  /// The first call, a call with N above K, and the first call after
  /// reset() walk the whole profile.
  std::vector<HotLockEntry> topLocks(size_t N) const TL_EXCLUDES(Mu);

  /// \returns the top \p N classes by cumulative blocked time (ties
  /// broken by contended-acquire count, then inflations, then by class
  /// index ascending).  Fed by the same folds as topLocks(), and ranked
  /// incrementally the same way.
  std::vector<HotClassEntry> topClasses(size_t N) const TL_EXCLUDES(Mu);

  /// Renders topLocks(N) as an aligned text table.  When \p Classes is
  /// non-null, class indices resolve to names.
  std::string formatTopLocks(size_t N,
                             const ClassRegistry *Classes = nullptr) const
      TL_EXCLUDES(Mu);

  /// Drops the retained timeline and the aggregate (rings keep their
  /// cursors: only not-yet-drained events survive a reset).
  void reset() TL_EXCLUDES(Mu);

private:
  /// One profile table keyed by object address or class index, plus the
  /// incremental ranking over it described at topLocks().
  template <typename KeyT, typename EntryT> class RankedTable {
  public:
    /// \returns the row for \p Key, created empty on first use, and
    /// lists it as moved for the next ranking.
    EntryT &touch(KeyT Key);
    /// \returns the first \p N rows in rank order.
    std::vector<EntryT> top(size_t N) const;
    void clear();

  private:
    struct Row {
      EntryT Entry;
      /// The ranking pass this row was last listed in Moved for.
      uint64_t ListedIn = 0;
    };
    /// unordered_map values keep their addresses across rehash, so the
    /// ranking holds row pointers rather than keys.
    std::unordered_map<KeyT, Row> Rows;
    /// Largest N asked since the last reset(); 0 = no ranking kept.
    mutable size_t K = 0;
    /// The last ranking's first K rows, best first.
    mutable std::vector<const Row *> Top;
    /// Rows touched since the last ranking, each listed once.
    mutable std::vector<const Row *> Moved;
    /// Bumped by every ranking, so a row lists itself again afterward.
    mutable uint64_t Pass = 1;
  };

  void fold(const LockEvent &E) TL_REQUIRES(Mu);

  ThreadRegistry &Registry;
  const size_t MaxRetainedEvents;
  mutable Mutex Mu;
  std::vector<LockEvent> Retained TL_GUARDED_BY(Mu);
  RankedTable<uint64_t, HotLockEntry> Profile TL_GUARDED_BY(Mu);
  RankedTable<uint32_t, HotClassEntry> ClassProfile TL_GUARDED_BY(Mu);
  uint64_t FoldedEvents TL_GUARDED_BY(Mu) = 0;
  uint64_t RetentionDrops TL_GUARDED_BY(Mu) = 0;
  uint64_t RingDrops TL_GUARDED_BY(Mu) = 0;
};

} // namespace obs
} // namespace thinlocks

#endif // THINLOCKS_OBS_LOCKEVENTCOLLECTOR_H
