//===- obs/LockEventCollector.cpp - Ring drain + hot-lock profiler --------===//

#include "obs/LockEventCollector.h"

#include "heap/ClassInfo.h"
#include "obs/EventRing.h"
#include "support/TableFormatter.h"
#include "threads/ThreadRegistry.h"

#include <algorithm>
#include <cstdio>

using namespace thinlocks;
using namespace thinlocks::obs;

namespace {

uint64_t tieBreakKey(const HotLockEntry &E) { return E.ObjectAddr; }
uint64_t tieBreakKey(const HotClassEntry &E) { return E.ClassIndex; }

/// The profile's rank order: blocked time, then contended acquires, then
/// inflations, all descending, then the key ascending.
template <typename EntryT> bool ranksBefore(const EntryT &A, const EntryT &B) {
  if (A.BlockedNanos != B.BlockedNanos)
    return A.BlockedNanos > B.BlockedNanos;
  if (A.ContendedAcquires != B.ContendedAcquires)
    return A.ContendedAcquires > B.ContendedAcquires;
  if (A.Inflations != B.Inflations)
    return A.Inflations > B.Inflations;
  return tieBreakKey(A) < tieBreakKey(B);
}

} // namespace

template <typename KeyT, typename EntryT>
EntryT &LockEventCollector::RankedTable<KeyT, EntryT>::touch(KeyT Key) {
  Row &R = Rows[Key];
  // With no ranking kept, the next one walks every row anyway.
  if (K != 0 && R.ListedIn != Pass) {
    R.ListedIn = Pass;
    Moved.push_back(&R);
  }
  return R.Entry;
}

template <typename KeyT, typename EntryT>
std::vector<EntryT>
LockEventCollector::RankedTable<KeyT, EntryT>::top(size_t N) const {
  if (N == 0)
    return {};
  // Rank in Moved's buffer: it becomes Top, and the old Top's buffer
  // becomes the next Moved.
  std::vector<const Row *> &Candidates = Moved;
  if (N > K) {
    K = N;
    Candidates.clear();
    Candidates.reserve(Rows.size());
    for (const auto &KV : Rows)
      Candidates.push_back(&KV.second);
  } else {
    for (const Row *Kept : Top)
      if (Kept->ListedIn != Pass)
        Candidates.push_back(Kept);
  }
  ++Pass;
  // partial_sort keeps a bounded K-heap over the candidates.
  size_t Keep = std::min(K, Candidates.size());
  std::partial_sort(Candidates.begin(), Candidates.begin() + Keep,
                    Candidates.end(), [](const Row *A, const Row *B) {
                      return ranksBefore(A->Entry, B->Entry);
                    });
  Candidates.resize(Keep);
  Top.swap(Candidates);
  Moved.clear();
  size_t Count = std::min(N, Top.size());
  std::vector<EntryT> Result;
  Result.reserve(Count);
  for (size_t I = 0; I < Count; ++I)
    Result.push_back(Top[I]->Entry);
  return Result;
}

template <typename KeyT, typename EntryT>
void LockEventCollector::RankedTable<KeyT, EntryT>::clear() {
  Rows.clear();
  K = 0;
  Top.clear();
  Moved.clear();
}

LockEventCollector::LockEventCollector(ThreadRegistry &Registry,
                                       size_t MaxRetainedEvents)
    : Registry(Registry), MaxRetainedEvents(MaxRetainedEvents) {}

size_t LockEventCollector::drain() {
  LockGuard G(Mu);
  size_t Consumed = 0;
  uint64_t RingDropTotal = 0;
  // Buffer the events and fold after the walk: the thread-safety
  // analysis cannot see through the std::function boundary of
  // forEachEventRing that Mu is held, and fold() requires it.
  std::vector<LockEvent> Batch;
  Registry.forEachEventRing([&](EventRing &Ring) {
    Consumed += Ring.drain([&](const LockEvent &E) { Batch.push_back(E); });
    // This collector is the rings' only drainer, so the cumulative
    // per-ring drop counts sum to the process-wide total.
    RingDropTotal += Ring.droppedEvents();
  });
  for (const LockEvent &E : Batch)
    fold(E);
  RingDrops = RingDropTotal;
  return Consumed;
}

void LockEventCollector::fold(const LockEvent &E) {
  ++FoldedEvents;
  if (Retained.size() < MaxRetainedEvents)
    Retained.push_back(E);
  else
    ++RetentionDrops;

  // An event without an object would mint a phantom profile row at
  // address zero.
  if (E.ObjectAddr == 0)
    return;

  HotLockEntry &Entry = Profile.touch(E.ObjectAddr);
  HotClassEntry &Rollup = ClassProfile.touch(E.ClassIndex);
  Rollup.ClassIndex = E.ClassIndex;
  // Count distinct objects per class: a fresh profile entry is one, and
  // so is an existing address re-recorded under a new class (the
  // allocator recycled it — the new incarnation is a new object, and
  // the old class keeps the history the old incarnation caused).
  if (Entry.ObjectAddr == 0 || Entry.ClassIndex != E.ClassIndex)
    ++Rollup.Objects;
  Entry.ObjectAddr = E.ObjectAddr;
  Entry.ClassIndex = E.ClassIndex;
  switch (E.Kind) {
  case EventKind::ContendedAcquire:
    ++Entry.ContendedAcquires;
    Entry.BlockedNanos += E.Arg;
    Entry.MaxQueueDepth = std::max<uint64_t>(Entry.MaxQueueDepth, E.Extra);
    ++Rollup.ContendedAcquires;
    Rollup.BlockedNanos += E.Arg;
    Rollup.MaxQueueDepth = std::max<uint64_t>(Rollup.MaxQueueDepth, E.Extra);
    break;
  case EventKind::Inflate:
    ++Entry.Inflations;
    ++Rollup.Inflations;
    break;
  case EventKind::Deflate:
    ++Entry.Deflations;
    ++Rollup.Deflations;
    break;
  case EventKind::Park:
    ++Entry.Parks;
    Entry.BlockedNanos += E.Arg;
    ++Rollup.Parks;
    Rollup.BlockedNanos += E.Arg;
    break;
  case EventKind::Wait:
    ++Entry.Waits;
    ++Rollup.Waits;
    break;
  case EventKind::Notify:
  case EventKind::NotifyAll:
    ++Entry.Notifies;
    ++Rollup.Notifies;
    break;
  case EventKind::Wake:
  case EventKind::Deadlock:
  case EventKind::None:
    break;
  }
}

std::vector<LockEvent> LockEventCollector::events() const {
  LockGuard G(Mu);
  return Retained;
}

uint64_t LockEventCollector::totalEvents() const {
  LockGuard G(Mu);
  return FoldedEvents;
}

uint64_t LockEventCollector::droppedEvents() const {
  LockGuard G(Mu);
  return RingDrops + RetentionDrops;
}

std::vector<HotLockEntry> LockEventCollector::topLocks(size_t N) const {
  LockGuard G(Mu);
  return Profile.top(N);
}

std::vector<HotClassEntry> LockEventCollector::topClasses(size_t N) const {
  LockGuard G(Mu);
  return ClassProfile.top(N);
}

std::string
LockEventCollector::formatTopLocks(size_t N,
                                   const ClassRegistry *Classes) const {
  std::vector<HotLockEntry> Top = topLocks(N);
  TableFormatter Table({"object", "class", "contended", "inflations",
                        "parks", "waits", "blocked_us", "max_queue"});
  for (const HotLockEntry &E : Top) {
    char Addr[32];
    std::snprintf(Addr, sizeof(Addr), "0x%llx",
                  static_cast<unsigned long long>(E.ObjectAddr));
    std::string ClassName;
    if (Classes)
      ClassName = Classes->classAt(E.ClassIndex).Name;
    else
      ClassName.append("#").append(std::to_string(E.ClassIndex));
    Table.addRow({Addr, ClassName,
                  TableFormatter::formatWithCommas(E.ContendedAcquires),
                  TableFormatter::formatWithCommas(E.Inflations),
                  TableFormatter::formatWithCommas(E.Parks),
                  TableFormatter::formatWithCommas(E.Waits),
                  TableFormatter::formatWithCommas(E.BlockedNanos / 1000),
                  TableFormatter::formatWithCommas(E.MaxQueueDepth)});
  }
  return Table.render();
}

void LockEventCollector::reset() {
  LockGuard G(Mu);
  Retained.clear();
  Profile.clear();
  ClassProfile.clear();
  FoldedEvents = 0;
  RetentionDrops = 0;
}
