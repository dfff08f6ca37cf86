//===- tests/obs_test.cpp - Lock-event observability tests ----------------===//
//
// Covers the obs layer end to end: event word packing, EventRing
// wraparound and torn-slot discipline, ring recycling across thread
// detach/attach, the tracing-off guarantee (no events recorded, ever),
// the hot-lock profiler's ranking (checked call by call against a full
// sort, also with concurrent rankers), and the Chrome trace exporter
// round-tripping through its own schema validator (plus the validator's
// rejection cases).
//
//===----------------------------------------------------------------------===//

#include "obs/ChromeTrace.h"
#include "obs/EventRing.h"
#include "obs/LockEventCollector.h"

#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "support/SplitMix64.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace thinlocks;

namespace {

/// Builds a ContendedAcquire event (the fully-populated kind).
obs::LockEvent contendedEvent(uint64_t Addr, uint16_t Tid, uint64_t Time,
                              uint64_t BlockedNanos, uint16_t QueueDepth,
                              uint32_t ClassIndex = 0) {
  obs::LockEvent E;
  E.Kind = obs::EventKind::ContendedAcquire;
  E.ObjectAddr = Addr;
  E.ThreadIndex = Tid;
  E.TimeNanos = Time;
  E.Arg = BlockedNanos;
  E.Extra = QueueDepth;
  E.ClassIndex = ClassIndex;
  return E;
}

} // namespace

//===----------------------------------------------------------------------===//
// Event packing
//===----------------------------------------------------------------------===//

TEST(LockEventTest, PackMetaRoundTrips) {
  uint64_t Meta = obs::LockEvent::packMeta(obs::EventKind::Wait,
                                           /*ThreadIndex=*/32767,
                                           /*ClassIndex=*/0xABCDEF,
                                           /*Extra=*/0xBEEF);
  obs::LockEvent E = obs::LockEvent::unpack(123, 456, Meta, 789);
  EXPECT_EQ(E.Kind, obs::EventKind::Wait);
  EXPECT_EQ(E.ThreadIndex, 32767u);
  EXPECT_EQ(E.ClassIndex, 0xABCDEFu);
  EXPECT_EQ(E.Extra, 0xBEEFu);
  EXPECT_EQ(E.TimeNanos, 123u);
  EXPECT_EQ(E.ObjectAddr, 456u);
  EXPECT_EQ(E.Arg, 789u);
}

TEST(LockEventTest, ClassIndexTruncatesTo24Bits) {
  uint64_t Meta = obs::LockEvent::packMeta(obs::EventKind::Inflate, 1,
                                           0xFF123456u, 0);
  EXPECT_EQ(obs::LockEvent::unpack(0, 0, Meta, 0).ClassIndex, 0x123456u);
}

TEST(LockEventTest, KindAndCauseNamesAreStable) {
  EXPECT_STREQ(obs::eventKindName(obs::EventKind::ContendedAcquire),
               "contended-acquire");
  EXPECT_STREQ(obs::inflateCauseName(obs::InflateCause::Overflow),
               "overflow");
}

TEST(LockEventTest, DurationKindsStartArgNanosBeforeTheirStamp) {
  const obs::EventKind Durations[] = {
      obs::EventKind::ContendedAcquire, obs::EventKind::Park,
      obs::EventKind::Wake, obs::EventKind::Wait};
  for (obs::EventKind Kind : Durations) {
    EXPECT_TRUE(obs::isDurationKind(Kind)) << obs::eventKindName(Kind);
    obs::LockEvent E;
    E.Kind = Kind;
    E.TimeNanos = 1000;
    E.Arg = 300;
    EXPECT_EQ(obs::startNanosOf(E), 700u) << obs::eventKindName(Kind);
    E.Arg = 5000; // Longer than the clock has run: clamps at 0.
    EXPECT_EQ(obs::startNanosOf(E), 0u) << obs::eventKindName(Kind);
  }
  // Every other kind is an instant; its Arg is not a duration.
  const obs::EventKind Instants[] = {
      obs::EventKind::None,      obs::EventKind::Inflate,
      obs::EventKind::Deflate,   obs::EventKind::Notify,
      obs::EventKind::NotifyAll, obs::EventKind::Deadlock};
  for (obs::EventKind Kind : Instants) {
    EXPECT_FALSE(obs::isDurationKind(Kind)) << obs::eventKindName(Kind);
    obs::LockEvent E;
    E.Kind = Kind;
    E.TimeNanos = 1000;
    E.Arg = 300;
    EXPECT_EQ(obs::startNanosOf(E), 1000u) << obs::eventKindName(Kind);
  }
}

//===----------------------------------------------------------------------===//
// EventRing
//===----------------------------------------------------------------------===//

TEST(EventRingTest, DeliversRecordedEventsInOrder) {
  obs::EventRing Ring(/*Capacity=*/16);
  for (uint64_t I = 0; I < 5; ++I)
    Ring.record(contendedEvent(0x1000 + I, 1, /*Time=*/I, /*Blocked=*/I, 0));
  std::vector<obs::LockEvent> Seen;
  EXPECT_EQ(Ring.drain([&](const obs::LockEvent &E) { Seen.push_back(E); }),
            5u);
  ASSERT_EQ(Seen.size(), 5u);
  for (uint64_t I = 0; I < 5; ++I)
    EXPECT_EQ(Seen[I].ObjectAddr, 0x1000 + I);
  EXPECT_EQ(Ring.droppedEvents(), 0u);
}

TEST(EventRingTest, WraparoundKeepsNewestAndCountsDropped) {
  obs::EventRing Ring(/*Capacity=*/8);
  for (uint64_t I = 0; I < 20; ++I)
    Ring.record(contendedEvent(/*Addr=*/I, 1, I, 0, 0));
  std::vector<obs::LockEvent> Seen;
  EXPECT_EQ(Ring.drain([&](const obs::LockEvent &E) { Seen.push_back(E); }),
            8u);
  // The writer lapped the reader 12 events ago; the newest 8 survive.
  ASSERT_EQ(Seen.size(), 8u);
  for (uint64_t I = 0; I < 8; ++I)
    EXPECT_EQ(Seen[I].ObjectAddr, 12 + I);
  EXPECT_EQ(Ring.droppedEvents(), 12u);
  EXPECT_EQ(Ring.recordedEvents(), 20u);
}

TEST(EventRingTest, SecondDrainDeliversOnlyNewEvents) {
  obs::EventRing Ring(/*Capacity=*/16);
  Ring.record(contendedEvent(1, 1, 1, 0, 0));
  Ring.record(contendedEvent(2, 1, 2, 0, 0));
  size_t First = Ring.drain([](const obs::LockEvent &) {});
  EXPECT_EQ(First, 2u);
  Ring.record(contendedEvent(3, 1, 3, 0, 0));
  std::vector<obs::LockEvent> Seen;
  EXPECT_EQ(Ring.drain([&](const obs::LockEvent &E) { Seen.push_back(E); }),
            1u);
  ASSERT_EQ(Seen.size(), 1u);
  EXPECT_EQ(Seen[0].ObjectAddr, 3u);
}

TEST(EventRingTest, EmptyRingNeverAllocatesAndDrainsNothing) {
  obs::EventRing Ring;
  EXPECT_EQ(Ring.drain([](const obs::LockEvent &) { FAIL(); }), 0u);
  EXPECT_EQ(Ring.recordedEvents(), 0u);
}

TEST(EventRingTest, DrainConcurrentWithLappingWriterDeliversNoTornEvent) {
  // A writer one lap ahead of the reader rewrites the slot the reader is
  // copying.  Every word of event N carries N, so an event stitched from
  // two records shows as words that disagree.  A tiny ring keeps the
  // writer lapping the reader all the time.
  obs::EventRing Ring(/*Capacity=*/4);
  std::atomic<bool> Stop{false};
  std::thread Writer([&] {
    for (uint64_t Seq = 1; !Stop.load(std::memory_order_relaxed); ++Seq)
      Ring.record(Seq, Seq, Seq, Seq);
  });
  uint64_t Delivered = 0, Torn = 0, OutOfOrder = 0, Last = 0;
  auto Check = [&](const obs::LockEvent &E) {
    uint64_t Meta = obs::LockEvent::packMeta(E.Kind, E.ThreadIndex,
                                             E.ClassIndex, E.Extra);
    ++Delivered;
    if (E.ObjectAddr != E.TimeNanos || Meta != E.TimeNanos ||
        E.Arg != E.TimeNanos) {
      ++Torn;
      return;
    }
    if (E.TimeNanos <= Last)
      ++OutOfOrder;
    Last = E.TimeNanos;
  };
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < Deadline)
    Ring.drain(Check);
  Stop.store(true, std::memory_order_relaxed);
  Writer.join();
  Ring.drain(Check);

  EXPECT_EQ(Torn, 0u) << "of " << Delivered << " delivered events";
  EXPECT_EQ(OutOfOrder, 0u);
  EXPECT_GT(Delivered, 0u);
  EXPECT_EQ(Delivered + Ring.droppedEvents(), Ring.recordedEvents());
}

//===----------------------------------------------------------------------===//
// Ring recycling through the registry
//===----------------------------------------------------------------------===//

TEST(ObsRegistryTest, RecycledIndexReusesRingAndKeepsOldEvents) {
  ThreadRegistry Registry;
  obs::LockEventCollector Collector(Registry);

  ThreadContext First = Registry.attach("first");
  uint16_t Index = First.index();
  obs::EventRing *Ring = First.eventRing();
  ASSERT_NE(Ring, nullptr);
  Ring->record(contendedEvent(0xAAAA, First.index(), 1, 10, 0));
  Registry.detach(First);

  // LIFO recycling hands the same index — and therefore the same ring —
  // to the next attacher; the detached thread's events stay drainable
  // and self-identify via their embedded thread index.
  ThreadContext Second = Registry.attach("second");
  EXPECT_EQ(Second.index(), Index);
  EXPECT_EQ(Second.eventRing(), Ring);
  Second.eventRing()->record(
      contendedEvent(0xBBBB, Second.index(), 2, 20, 0));
  Registry.detach(Second);

  EXPECT_EQ(Collector.drain(), 2u);
  std::vector<obs::LockEvent> Events = Collector.events();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].ObjectAddr, 0xAAAAu);
  EXPECT_EQ(Events[1].ObjectAddr, 0xBBBBu);
  EXPECT_EQ(Events[0].ThreadIndex, Index);
  EXPECT_EQ(Events[1].ThreadIndex, Index);
}

//===----------------------------------------------------------------------===//
// Tracing-off guarantee
//===----------------------------------------------------------------------===//

TEST(ObsTracingTest, EventsOffModeRecordsNothing) {
  obs::setTracing(false);
  ThreadRegistry Registry;
  MonitorTable Monitors;
  ThinLockManager Locks(Monitors);
  Heap TheHeap;
  obs::LockEventCollector Collector(Registry);
  const ClassInfo &Class = TheHeap.classes().registerClass("Quiet", 0);

  ThreadContext Main = Registry.attach("main");
  // Exercise inflating paths (count overflow, a wait, a contender) with
  // tracing off: nothing may reach any ring.
  Object *Obj = TheHeap.allocate(Class);
  for (int I = 0; I < 257; ++I)
    Locks.lock(Obj, Main);
  for (int I = 0; I < 257; ++I)
    Locks.unlock(Obj, Main);
  EXPECT_TRUE(Locks.isInflated(Obj));
  std::thread Contender([&] {
    ScopedThreadAttachment Attachment(Registry, "contender");
    Locks.lock(Obj, Attachment.context());
    Locks.unlock(Obj, Attachment.context());
  });
  Contender.join();
  Registry.detach(Main);

  EXPECT_EQ(Collector.drain(), 0u);
  EXPECT_EQ(Collector.totalEvents(), 0u);
  EXPECT_EQ(Collector.droppedEvents(), 0u);

  // Flip tracing on: the same overflow path now emits an Inflate.
  obs::setTracing(true);
  ThreadContext Again = Registry.attach("again");
  Object *Loud = TheHeap.allocate(Class);
  for (int I = 0; I < 257; ++I)
    Locks.lock(Loud, Again);
  for (int I = 0; I < 257; ++I)
    Locks.unlock(Loud, Again);
  Registry.detach(Again);
  obs::setTracing(false);

  EXPECT_GE(Collector.drain(), 1u);
  bool SawInflate = false;
  for (const obs::LockEvent &E : Collector.events())
    if (E.Kind == obs::EventKind::Inflate &&
        E.ObjectAddr == reinterpret_cast<uint64_t>(Loud)) {
      SawInflate = true;
      EXPECT_EQ(E.Arg,
                static_cast<uint64_t>(obs::InflateCause::Overflow));
    }
  EXPECT_TRUE(SawInflate);
}

//===----------------------------------------------------------------------===//
// Hot-lock profiler
//===----------------------------------------------------------------------===//

TEST(ObsCollectorTest, TopLocksRanksByBlockedTime) {
  ThreadRegistry Registry;
  obs::LockEventCollector Collector(Registry);
  ThreadContext Main = Registry.attach("main");
  obs::EventRing *Ring = Main.eventRing();

  // 0x2000 blocks longest (one big stall); 0x1000 is acquired more
  // often but cheaply; 0x3000 only parks.
  Ring->record(contendedEvent(0x1000, Main.index(), 1, 100, 1));
  Ring->record(contendedEvent(0x1000, Main.index(), 2, 100, 3));
  Ring->record(contendedEvent(0x1000, Main.index(), 3, 100, 2));
  Ring->record(contendedEvent(0x2000, Main.index(), 4, 90000, 7));
  obs::LockEvent Park;
  Park.Kind = obs::EventKind::Park;
  Park.ObjectAddr = 0x3000;
  Park.ThreadIndex = Main.index();
  Park.Arg = 50;
  Ring->record(Park);
  Registry.detach(Main);

  EXPECT_EQ(Collector.drain(), 5u);
  std::vector<obs::HotLockEntry> Top = Collector.topLocks(3);
  ASSERT_EQ(Top.size(), 3u);
  EXPECT_EQ(Top[0].ObjectAddr, 0x2000u);
  EXPECT_EQ(Top[0].BlockedNanos, 90000u);
  EXPECT_EQ(Top[0].MaxQueueDepth, 7u);
  EXPECT_EQ(Top[1].ObjectAddr, 0x1000u);
  EXPECT_EQ(Top[1].ContendedAcquires, 3u);
  EXPECT_EQ(Top[1].MaxQueueDepth, 3u);
  EXPECT_EQ(Top[2].ObjectAddr, 0x3000u);
  EXPECT_EQ(Top[2].Parks, 1u);

  std::string Table = Collector.formatTopLocks(3);
  EXPECT_NE(Table.find("0x2000"), std::string::npos);
  EXPECT_NE(Table.find("blocked_us"), std::string::npos);
}

TEST(ObsCollectorTest, RetentionCapFeedsAggregateButDropsTimeline) {
  ThreadRegistry Registry;
  obs::LockEventCollector Collector(Registry, /*MaxRetainedEvents=*/4);
  ThreadContext Main = Registry.attach("main");
  for (uint64_t I = 0; I < 10; ++I)
    Main.eventRing()->record(
        contendedEvent(0x4000, Main.index(), I, 10, 0));
  Registry.detach(Main);

  EXPECT_EQ(Collector.drain(), 10u);
  EXPECT_EQ(Collector.events().size(), 4u);
  EXPECT_EQ(Collector.totalEvents(), 10u);
  EXPECT_EQ(Collector.droppedEvents(), 6u);
  std::vector<obs::HotLockEntry> Top = Collector.topLocks(1);
  ASSERT_EQ(Top.size(), 1u);
  // The aggregate saw all ten even though the timeline kept four.
  EXPECT_EQ(Top[0].ContendedAcquires, 10u);
}

TEST(ObsCollectorTest, EventWithoutObjectStaysInTimelineOnly) {
  ThreadRegistry Registry;
  obs::LockEventCollector Collector(Registry);
  ThreadContext Main = Registry.attach("main");
  Main.eventRing()->record(contendedEvent(0, Main.index(), 1, 500, 0));
  Main.eventRing()->record(contendedEvent(0x5000, Main.index(), 2, 10, 0));
  Registry.detach(Main);

  EXPECT_EQ(Collector.drain(), 2u);
  EXPECT_EQ(Collector.events().size(), 2u);
  // Address zero names no object: no phantom profile row, in the object
  // table or the class rollup.
  std::vector<obs::HotLockEntry> Top = Collector.topLocks(4);
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0].ObjectAddr, 0x5000u);
  std::vector<obs::HotClassEntry> Classes = Collector.topClasses(4);
  ASSERT_EQ(Classes.size(), 1u);
  EXPECT_EQ(Classes[0].BlockedNanos, 10u);
}

TEST(ObsCollectorTest, TopClassesRollsUpAndBreaksTies) {
  ThreadRegistry Registry;
  obs::LockEventCollector Collector(Registry);
  ThreadContext Main = Registry.attach("main");
  obs::EventRing *Ring = Main.eventRing();

  // Class 7: two objects, 300ns blocked total, 2 contended acquires.
  Ring->record(contendedEvent(0x1000, Main.index(), 1, 100, 2, /*Class=*/7));
  Ring->record(contendedEvent(0x1100, Main.index(), 2, 200, 5, /*Class=*/7));
  // Class 3: one object, same 300ns blocked but 3 contended acquires —
  // the tie on blocked time must break toward more contention.
  Ring->record(contendedEvent(0x2000, Main.index(), 3, 100, 1, /*Class=*/3));
  Ring->record(contendedEvent(0x2000, Main.index(), 4, 100, 1, /*Class=*/3));
  Ring->record(contendedEvent(0x2000, Main.index(), 5, 100, 1, /*Class=*/3));
  // Classes 9 and 4: identical in every ranked dimension — the final
  // tie-break is ascending class index, so the order is deterministic.
  Ring->record(contendedEvent(0x3000, Main.index(), 6, 50, 1, /*Class=*/9));
  Ring->record(contendedEvent(0x4000, Main.index(), 7, 50, 1, /*Class=*/4));
  Registry.detach(Main);

  EXPECT_EQ(Collector.drain(), 7u);
  std::vector<obs::HotClassEntry> Top = Collector.topClasses(10);
  ASSERT_EQ(Top.size(), 4u);
  EXPECT_EQ(Top[0].ClassIndex, 3u); // 300ns, 3 contended.
  EXPECT_EQ(Top[0].Objects, 1u);
  EXPECT_EQ(Top[0].ContendedAcquires, 3u);
  EXPECT_EQ(Top[1].ClassIndex, 7u); // 300ns, 2 contended.
  EXPECT_EQ(Top[1].Objects, 2u);
  EXPECT_EQ(Top[1].BlockedNanos, 300u);
  EXPECT_EQ(Top[1].MaxQueueDepth, 5u);
  EXPECT_EQ(Top[2].ClassIndex, 4u); // Tied with 9: lower index first.
  EXPECT_EQ(Top[3].ClassIndex, 9u);

  // The cap truncates after ranking.
  EXPECT_EQ(Collector.topClasses(1).size(), 1u);
  EXPECT_EQ(Collector.topClasses(1)[0].ClassIndex, 3u);
}

TEST(ObsCollectorTest, TopClassesReattributesRecycledAddresses) {
  ThreadRegistry Registry;
  obs::LockEventCollector Collector(Registry);
  ThreadContext Main = Registry.attach("main");
  obs::EventRing *Ring = Main.eventRing();

  // One address lives two lives: first as class 1, then (after the
  // allocator recycles it) as class 2.  Each incarnation must count as
  // an object of its own class, and class 1 must keep the history its
  // incarnation caused rather than having it migrate to class 2.
  Ring->record(contendedEvent(0x5000, Main.index(), 1, 100, 1, /*Class=*/1));
  Registry.detach(Main);
  EXPECT_EQ(Collector.drain(), 1u);

  ThreadContext Again = Registry.attach("again");
  Again.eventRing()->record(
      contendedEvent(0x5000, Again.index(), 2, 40, 1, /*Class=*/2));
  Registry.detach(Again);
  EXPECT_EQ(Collector.drain(), 1u);

  std::vector<obs::HotClassEntry> Top = Collector.topClasses(10);
  ASSERT_EQ(Top.size(), 2u);
  EXPECT_EQ(Top[0].ClassIndex, 1u);
  EXPECT_EQ(Top[0].Objects, 1u);
  EXPECT_EQ(Top[0].BlockedNanos, 100u);
  EXPECT_EQ(Top[1].ClassIndex, 2u);
  EXPECT_EQ(Top[1].Objects, 1u);
  EXPECT_EQ(Top[1].BlockedNanos, 40u);

  // The per-object row follows the newest incarnation.
  std::vector<obs::HotLockEntry> Objects = Collector.topLocks(1);
  ASSERT_EQ(Objects.size(), 1u);
  EXPECT_EQ(Objects[0].ClassIndex, 2u);
}

TEST(ObsCollectorTest, TopLocksBreaksFullTiesByAscendingAddress) {
  ThreadRegistry Registry;
  obs::LockEventCollector Collector(Registry);
  ThreadContext Main = Registry.attach("main");
  obs::EventRing *Ring = Main.eventRing();

  // 0x9000 leads the first ranking alone; then 0x3000 and 0x6000 catch
  // up to it on all three keys between two rankings.
  Ring->record(contendedEvent(0x9000, Main.index(), 1, 200, 1));
  Ring->record(contendedEvent(0x3000, Main.index(), 2, 100, 1));
  Ring->record(contendedEvent(0x6000, Main.index(), 3, 100, 1));
  EXPECT_EQ(Collector.drain(), 3u);
  std::vector<obs::HotLockEntry> Top = Collector.topLocks(2);
  ASSERT_EQ(Top.size(), 2u);
  EXPECT_EQ(Top[0].ObjectAddr, 0x9000u);
  EXPECT_EQ(Top[1].ObjectAddr, 0x3000u);

  Ring->record(contendedEvent(0x6000, Main.index(), 4, 100, 1));
  Ring->record(contendedEvent(0x3000, Main.index(), 5, 100, 1));
  Ring->record(contendedEvent(0x9000, Main.index(), 6, 0, 1));
  Registry.detach(Main);
  EXPECT_EQ(Collector.drain(), 3u);
  Top = Collector.topLocks(3);
  ASSERT_EQ(Top.size(), 3u);
  EXPECT_EQ(Top[0].ObjectAddr, 0x3000u);
  EXPECT_EQ(Top[1].ObjectAddr, 0x6000u);
  EXPECT_EQ(Top[2].ObjectAddr, 0x9000u);
  for (const obs::HotLockEntry &E : Top) {
    EXPECT_EQ(E.BlockedNanos, 200u);
    EXPECT_EQ(E.ContendedAcquires, 2u);
  }
}

namespace {

/// The rows a stream of events must fold into, ranked by a plain full
/// sort: the reference the collector's incremental ranking must match.
/// Models the event kinds randomEvent() emits.
struct ReferenceProfile {
  std::map<uint64_t, obs::HotLockEntry> Objects;
  std::map<uint32_t, obs::HotClassEntry> Classes;

  /// The documented order: blocked time, contended acquires and
  /// inflations descending, then address (or class index) ascending.
  template <typename EntryT>
  static bool rankedBefore(const EntryT &A, const EntryT &B) {
    return std::make_tuple(B.BlockedNanos, B.ContendedAcquires, B.Inflations,
                           key(A)) < std::make_tuple(A.BlockedNanos,
                                                     A.ContendedAcquires,
                                                     A.Inflations, key(B));
  }
  static uint64_t key(const obs::HotLockEntry &E) { return E.ObjectAddr; }
  static uint64_t key(const obs::HotClassEntry &E) { return E.ClassIndex; }

  void fold(const obs::LockEvent &E) {
    obs::HotLockEntry &Row = Objects[E.ObjectAddr];
    obs::HotClassEntry &Rollup = Classes[E.ClassIndex];
    Rollup.ClassIndex = E.ClassIndex;
    if (Row.ObjectAddr == 0 || Row.ClassIndex != E.ClassIndex)
      ++Rollup.Objects;
    Row.ObjectAddr = E.ObjectAddr;
    Row.ClassIndex = E.ClassIndex;
    switch (E.Kind) {
    case obs::EventKind::ContendedAcquire:
      ++Row.ContendedAcquires;
      ++Rollup.ContendedAcquires;
      Row.BlockedNanos += E.Arg;
      Rollup.BlockedNanos += E.Arg;
      Row.MaxQueueDepth = std::max<uint64_t>(Row.MaxQueueDepth, E.Extra);
      Rollup.MaxQueueDepth = std::max<uint64_t>(Rollup.MaxQueueDepth, E.Extra);
      break;
    case obs::EventKind::Inflate:
      ++Row.Inflations;
      ++Rollup.Inflations;
      break;
    case obs::EventKind::Deflate:
      ++Row.Deflations;
      ++Rollup.Deflations;
      break;
    case obs::EventKind::Park:
      ++Row.Parks;
      ++Rollup.Parks;
      Row.BlockedNanos += E.Arg;
      Rollup.BlockedNanos += E.Arg;
      break;
    default:
      ADD_FAILURE() << "reference does not model this kind";
    }
  }

  std::vector<obs::HotLockEntry> topLocks(size_t N) const {
    return fullSort(Objects, N);
  }
  std::vector<obs::HotClassEntry> topClasses(size_t N) const {
    return fullSort(Classes, N);
  }

private:
  template <typename KeyT, typename EntryT>
  static std::vector<EntryT> fullSort(const std::map<KeyT, EntryT> &Rows,
                                      size_t N) {
    std::vector<EntryT> All;
    for (const auto &KV : Rows)
      All.push_back(KV.second);
    std::sort(All.begin(), All.end(), rankedBefore<EntryT>);
    if (All.size() > N)
      All.resize(N);
    return All;
  }
};

auto fieldsOf(const obs::HotLockEntry &E) {
  return std::make_tuple(E.ObjectAddr, E.ClassIndex, E.ContendedAcquires,
                         E.Inflations, E.Deflations, E.Parks, E.Waits,
                         E.Notifies, E.BlockedNanos, E.MaxQueueDepth);
}

auto fieldsOf(const obs::HotClassEntry &E) {
  return std::make_tuple(E.ClassIndex, E.Objects, E.ContendedAcquires,
                         E.Inflations, E.Deflations, E.Parks, E.Waits,
                         E.Notifies, E.BlockedNanos, E.MaxQueueDepth);
}

template <typename EntryT>
bool sameRows(const std::vector<EntryT> &Got,
              const std::vector<EntryT> &Want) {
  return std::equal(Got.begin(), Got.end(), Want.begin(), Want.end(),
                    [](const EntryT &A, const EntryT &B) {
                      return fieldsOf(A) == fieldsOf(B);
                    });
}

/// A random event on \p Addr.  Small quantized arguments make rows tie
/// on all three ranking keys often, and Deflate-only rows tie at zero.
obs::LockEvent randomEvent(SplitMix64 &Rng, uint64_t Addr,
                           uint32_t ClassIndex) {
  obs::LockEvent E;
  E.ObjectAddr = Addr;
  E.ClassIndex = ClassIndex;
  switch (Rng.nextBounded(5)) {
  case 0:
  case 1:
    E.Kind = obs::EventKind::ContendedAcquire;
    E.Arg = 100 * Rng.nextBounded(4);
    E.Extra = static_cast<uint16_t>(Rng.nextBounded(8));
    break;
  case 2:
    E.Kind = obs::EventKind::Park;
    E.Arg = 100 * Rng.nextBounded(3);
    break;
  case 3:
    E.Kind = obs::EventKind::Inflate;
    break;
  default:
    E.Kind = obs::EventKind::Deflate;
    break;
  }
  return E;
}

} // namespace

TEST(ObsCollectorTest, IncrementalRankingMatchesFullSort) {
  // Sizes asked of the rankings: 0, 1, growing and shrinking in random
  // order, and past the row count.
  const size_t Sizes[] = {0, 1, 2, 3, 5, 8, 13, 32, 64, 100, 1000};
  const uint64_t Seeds = 80;
  const unsigned Rankings = 400;
  // Coverage of the cases the stream is built to hit.
  unsigned Resets = 0, FullTies = 0;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    SplitMix64 Rng(Seed);
    ThreadRegistry Registry;
    obs::LockEventCollector Collector(Registry);
    ThreadContext Main = Registry.attach("main");
    ReferenceProfile Ref;
    std::vector<obs::LockEvent> Undrained;
    // Each address keeps its class until the allocator "recycles" it.
    const size_t Pool = 8 + Rng.nextBounded(200);
    std::vector<uint32_t> ClassOf(Pool, 0);
    for (unsigned Step = 0; Step < Rankings; ++Step) {
      for (uint64_t I = Rng.nextBounded(12); I > 0; --I) {
        size_t Slot = Rng.nextBounded(Pool);
        if (Rng.nextBool(0.02))
          ClassOf[Slot] = static_cast<uint32_t>(Rng.nextBounded(6));
        obs::LockEvent E =
            randomEvent(Rng, 0x1000 + 0x40 * Slot, ClassOf[Slot]);
        Main.eventRing()->record(E);
        Undrained.push_back(E);
      }
      if (Rng.nextBool(0.5) || Undrained.size() > 1000) {
        ASSERT_EQ(Collector.drain(), Undrained.size());
        for (const obs::LockEvent &E : Undrained)
          Ref.fold(E);
        Undrained.clear();
      }
      // Undrained events survive a reset; the aggregate does not.
      if (Rng.nextBool(0.01)) {
        Collector.reset();
        Ref = ReferenceProfile();
        ++Resets;
      }
      size_t N = Sizes[Rng.nextBounded(std::size(Sizes))];
      std::vector<obs::HotLockEntry> Top = Collector.topLocks(N);
      ASSERT_TRUE(sameRows(Top, Ref.topLocks(N)))
          << "topLocks(" << N << "), seed " << Seed << ", step " << Step;
      for (size_t I = 1; I < Top.size(); ++I)
        FullTies += Top[I - 1].BlockedNanos == Top[I].BlockedNanos &&
                    Top[I - 1].ContendedAcquires == Top[I].ContendedAcquires &&
                    Top[I - 1].Inflations == Top[I].Inflations;
      N = Sizes[Rng.nextBounded(std::size(Sizes))];
      ASSERT_TRUE(sameRows(Collector.topClasses(N), Ref.topClasses(N)))
          << "topClasses(" << N << "), seed " << Seed << ", step " << Step;
    }
    Registry.detach(Main);
  }
  EXPECT_GT(Resets, 0u);
  EXPECT_GT(FullTies, 0u);
}

TEST(ObsCollectorTest, ConcurrentRankersMatchFinalProfile) {
  // TSan target for the ranking state topLocks() and topClasses() keep
  // between calls: one thread records and drains while two others rank.
  ThreadRegistry Registry;
  obs::LockEventCollector Collector(Registry);
  ReferenceProfile Ref;
  std::atomic<bool> Done{false};
  std::thread Recorder([&] {
    ScopedThreadAttachment Attach(Registry, "recorder");
    obs::EventRing &Ring = *Attach.context().eventRing();
    SplitMix64 Rng(16);
    std::vector<obs::LockEvent> Undrained;
    for (unsigned Step = 0; Step < 2000; ++Step) {
      for (unsigned I = 0; I < 8; ++I) {
        uint64_t Slot = Rng.nextBounded(300);
        obs::LockEvent E = randomEvent(Rng, 0x1000 + 0x40 * Slot,
                                       static_cast<uint32_t>(Slot % 5));
        Ring.record(E);
        Undrained.push_back(E);
      }
      if (Step % 4 == 3 || Step == 1999) {
        Collector.drain();
        for (const obs::LockEvent &E : Undrained)
          Ref.fold(E);
        Undrained.clear();
      }
    }
    Done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> Rankers;
  for (size_t Base : {4, 24}) {
    Rankers.emplace_back([&Collector, &Done, Base] {
      for (size_t I = 0; !Done.load(std::memory_order_acquire); ++I) {
        std::vector<obs::HotLockEntry> Top = Collector.topLocks(Base + I % 9);
        EXPECT_TRUE(std::is_sorted(Top.begin(), Top.end(),
                                   ReferenceProfile::rankedBefore<
                                       obs::HotLockEntry>));
        std::vector<obs::HotClassEntry> TopC = Collector.topClasses(I % 6);
        EXPECT_TRUE(std::is_sorted(TopC.begin(), TopC.end(),
                                   ReferenceProfile::rankedBefore<
                                       obs::HotClassEntry>));
        EXPECT_FALSE(Collector.formatTopLocks(Base).empty());
      }
    });
  }
  Recorder.join();
  for (std::thread &T : Rankers)
    T.join();

  // Within the kept K, past it (a full walk), then within it again.
  for (size_t N : {8, 32, 1000, 16}) {
    EXPECT_TRUE(sameRows(Collector.topLocks(N), Ref.topLocks(N)))
        << "topLocks(" << N << ")";
    EXPECT_TRUE(sameRows(Collector.topClasses(N), Ref.topClasses(N)))
        << "topClasses(" << N << ")";
  }
}

//===----------------------------------------------------------------------===//
// Chrome trace exporter + validator
//===----------------------------------------------------------------------===//

TEST(ChromeTraceTest, ExportedTraceRoundTripsThroughValidator) {
  std::vector<obs::LockEvent> Events;
  Events.push_back(contendedEvent(0x1000, 2, /*Time=*/5000, /*Blocked=*/3000,
                                  /*Queue=*/2));
  obs::LockEvent Inflate;
  Inflate.Kind = obs::EventKind::Inflate;
  Inflate.ObjectAddr = 0x1000;
  Inflate.ThreadIndex = 2;
  Inflate.TimeNanos = 6000;
  Inflate.Arg = static_cast<uint64_t>(obs::InflateCause::Contention);
  Events.push_back(Inflate);
  obs::LockEvent Park;
  Park.Kind = obs::EventKind::Park;
  Park.ObjectAddr = 0x1000;
  Park.ThreadIndex = 3;
  Park.TimeNanos = 9000;
  Park.Arg = 2500;
  Events.push_back(Park);

  std::string Json = obs::toChromeTraceJson(Events);
  std::string Error;
  EXPECT_TRUE(obs::validateChromeTraceJson(Json, &Error)) << Error;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("contended-acquire"), std::string::npos);
}

TEST(ChromeTraceTest, EmptyTraceIsValid) {
  std::string Json = obs::toChromeTraceJson({});
  std::string Error;
  EXPECT_TRUE(obs::validateChromeTraceJson(Json, &Error)) << Error;
}

TEST(ChromeTraceTest, ValidatorRejectsMalformedInput) {
  std::string Error;
  // Truncated JSON.
  EXPECT_FALSE(obs::validateChromeTraceJson("{\"traceEvents\":[", &Error));
  // Parses, but the top level must be an object.
  EXPECT_FALSE(obs::validateChromeTraceJson("[]", &Error));
  // Missing traceEvents.
  EXPECT_FALSE(obs::validateChromeTraceJson("{}", &Error));
  // Event records need a numeric ts and a one-char ph.
  EXPECT_FALSE(obs::validateChromeTraceJson(
      "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"XX\",\"ts\":0,"
      "\"pid\":1,\"tid\":1}]}",
      &Error));
  EXPECT_FALSE(obs::validateChromeTraceJson(
      "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"ts\":\"no\","
      "\"pid\":1,\"tid\":1}]}",
      &Error));
  // "X" duration events require a non-negative dur.
  EXPECT_FALSE(obs::validateChromeTraceJson(
      "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,"
      "\"pid\":1,\"tid\":1,\"dur\":-4}]}",
      &Error));
  // Trailing garbage after a valid document.
  EXPECT_FALSE(
      obs::validateChromeTraceJson("{\"traceEvents\":[]} trailing", &Error));
}
