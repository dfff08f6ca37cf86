//===- tests/park_test.cpp - Waiting-substrate tests ----------------------===//
//
// Covers the waiting substrate: the IntrusiveFifo every queue of blocked
// threads is built on, Parker token semantics (sticky unpark, timed
// park, spurious-wake tolerance, wake-latency stamps) and ParkingLot
// queueing (bucket hashing and deliberate collisions, FIFO wake order,
// self-removal on timeout, concurrent park/unpark stress — the suite the
// tsan preset is pointed at), plus the `park.spurious` failpoint and
// FIFO fairness of the Parker-based FatLock wait set and entry queue.
//
//===----------------------------------------------------------------------===//

#include "park/IntrusiveFifo.h"
#include "park/Parker.h"
#include "park/ParkingLot.h"

#include "fatlock/FatLock.h"
#include "support/FailPoint.h"
#include "threads/ThreadRegistry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace thinlocks;
using namespace std::chrono_literals;

namespace {

/// Spin-waits (with yields) until \p Cond holds, failing after ~5s.
template <typename Fn> void waitFor(Fn &&Cond) {
  auto Deadline = std::chrono::steady_clock::now() + 5s;
  while (!Cond()) {
    ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
        << "condition not reached in time";
    std::this_thread::yield();
  }
}

/// Scans a static byte arena for \p N distinct addresses that all hash
/// to the same ParkingLot bucket.  With 64 buckets and an arena of a few
/// thousand slots the pigeonhole principle guarantees success.
std::vector<const void *> collidingKeys(size_t N) {
  static char Arena[64 * 65 * 8];
  std::vector<const void *> Keys;
  size_t Bucket = ParkingLot::bucketIndexOf(&Arena[0]);
  for (size_t I = 0; I < sizeof(Arena) && Keys.size() < N; I += 8)
    if (ParkingLot::bucketIndexOf(&Arena[I]) == Bucket)
      Keys.push_back(&Arena[I]);
  EXPECT_EQ(Keys.size(), N);
  return Keys;
}

} // namespace

//===----------------------------------------------------------------------===//
// IntrusiveFifo
//===----------------------------------------------------------------------===//

namespace {

struct FifoNode {
  int Id = 0;
  FifoNode *Next = nullptr;
};

/// Pops \p Fifo empty and \returns the ids, front to back.
std::vector<int> drain(IntrusiveFifo<FifoNode> &Fifo) {
  std::vector<int> Ids;
  while (FifoNode *N = Fifo.popFront())
    Ids.push_back(N->Id);
  return Ids;
}

} // namespace

TEST(IntrusiveFifoTest, PopsInPushOrder) {
  FifoNode Nodes[4] = {{1}, {2}, {3}, {4}};
  IntrusiveFifo<FifoNode> Fifo;
  EXPECT_TRUE(Fifo.empty());
  EXPECT_EQ(Fifo.popFront(), nullptr);
  for (FifoNode &N : Nodes) {
    Fifo.pushBack(&N);
    EXPECT_EQ(Fifo.size(), static_cast<uint32_t>(N.Id));
  }
  EXPECT_EQ(Fifo.front(), &Nodes[0]);
  EXPECT_EQ(Fifo.popFront(), &Nodes[0]);
  EXPECT_EQ(Fifo.size(), 3u);
  // A popped node pushed again goes to the tail.
  Fifo.pushBack(&Nodes[0]);
  EXPECT_EQ(Fifo.size(), 4u);
  EXPECT_EQ(drain(Fifo), (std::vector<int>{2, 3, 4, 1}));
  EXPECT_TRUE(Fifo.empty());
  EXPECT_EQ(Fifo.size(), 0u);
}

TEST(IntrusiveFifoTest, RemovesHeadMiddleTailAndOnlyNode) {
  FifoNode Nodes[5] = {{1}, {2}, {3}, {4}, {5}};
  IntrusiveFifo<FifoNode> Fifo;
  for (FifoNode &N : Nodes)
    Fifo.pushBack(&N);
  EXPECT_TRUE(Fifo.remove(&Nodes[0])); // Head.
  EXPECT_EQ(Fifo.size(), 4u);
  EXPECT_EQ(Fifo.front(), &Nodes[1]);
  EXPECT_TRUE(Fifo.remove(&Nodes[2])); // Middle.
  EXPECT_EQ(Fifo.size(), 3u);
  EXPECT_TRUE(Fifo.remove(&Nodes[4])); // Tail.
  EXPECT_EQ(Fifo.size(), 2u);
  // A node that is not queued changes nothing.
  EXPECT_FALSE(Fifo.remove(&Nodes[4]));
  EXPECT_EQ(Fifo.size(), 2u);
  // The tail moved back to node 4: a push lands behind it.
  Fifo.pushBack(&Nodes[0]);
  EXPECT_EQ(Fifo.size(), 3u);
  EXPECT_EQ(drain(Fifo), (std::vector<int>{2, 4, 1}));

  Fifo.pushBack(&Nodes[2]);
  EXPECT_TRUE(Fifo.remove(&Nodes[2])); // The only node.
  EXPECT_TRUE(Fifo.empty());
  EXPECT_EQ(Fifo.size(), 0u);
  EXPECT_EQ(Fifo.front(), nullptr);
  Fifo.pushBack(&Nodes[3]);
  EXPECT_EQ(Fifo.size(), 1u);
  EXPECT_EQ(drain(Fifo), (std::vector<int>{4}));
}

TEST(IntrusiveFifoTest, RemoveAllUnlinksEveryMatchInOneWalk) {
  // The ParkingLot::unparkAll pattern: a bucket holds several keys, and
  // waking one key takes all of its waiters in FIFO order.  Here the
  // matches include the head, adjacent runs and the tail.
  FifoNode Nodes[7] = {{1}, {2}, {3}, {4}, {5}, {6}, {7}};
  IntrusiveFifo<FifoNode> Fifo;
  for (FifoNode &N : Nodes)
    Fifo.pushBack(&N);
  std::vector<int> Taken;
  EXPECT_EQ(Fifo.removeAll([&](const FifoNode &N) {
              if (N.Id % 3 == 0)
                return false;
              Taken.push_back(N.Id);
              return true;
            }),
            5u);
  EXPECT_EQ(Taken, (std::vector<int>{1, 2, 4, 5, 7}));
  EXPECT_EQ(Fifo.size(), 2u);
  // The survivors keep their order, and the last one is the tail.
  Fifo.pushBack(&Nodes[0]);
  EXPECT_EQ(Fifo.size(), 3u);
  EXPECT_EQ(drain(Fifo), (std::vector<int>{3, 6, 1}));

  for (FifoNode &N : Nodes)
    Fifo.pushBack(&N);
  EXPECT_EQ(Fifo.removeAll([](const FifoNode &) { return true; }), 7u);
  EXPECT_TRUE(Fifo.empty());
  EXPECT_EQ(Fifo.size(), 0u);
  EXPECT_EQ(Fifo.removeAll([](const FifoNode &) { return true; }), 0u);
  Fifo.pushBack(&Nodes[1]);
  EXPECT_EQ(drain(Fifo), (std::vector<int>{2}));
}

TEST(IntrusiveFifoTest, RemoveFirstTakesOnlyTheEarliestMatch) {
  FifoNode Nodes[4] = {{1}, {2}, {3}, {4}};
  IntrusiveFifo<FifoNode> Fifo;
  for (FifoNode &N : Nodes)
    Fifo.pushBack(&N);
  auto Even = [](const FifoNode &N) { return N.Id % 2 == 0; };
  EXPECT_EQ(Fifo.countIf(Even), 2u);
  EXPECT_EQ(Fifo.removeFirst(Even), &Nodes[1]);
  EXPECT_EQ(Fifo.size(), 3u);
  EXPECT_EQ(Fifo.countIf(Even), 1u);
  EXPECT_EQ(Fifo.removeFirst(Even), &Nodes[3]); // The tail.
  EXPECT_EQ(Fifo.size(), 2u);
  EXPECT_EQ(Fifo.removeFirst(Even), nullptr);
  EXPECT_EQ(Fifo.size(), 2u);
  Fifo.pushBack(&Nodes[1]);
  EXPECT_EQ(drain(Fifo), (std::vector<int>{1, 3, 2}));
}

//===----------------------------------------------------------------------===//
// Parker
//===----------------------------------------------------------------------===//

TEST(ParkerTest, PendingTokenConsumedWithoutBlocking) {
  Parker P;
  P.unpark();
  EXPECT_EQ(P.park(), Parker::WakeReason::Unparked);
  EXPECT_EQ(P.blockedParkCount(), 0u);
  // A consumed-without-blocking token records no wake latency.
  EXPECT_EQ(P.lastBlockedWakeNanos(), 0u);
}

TEST(ParkerTest, TokensDoNotAccumulate) {
  Parker P;
  P.unpark();
  P.unpark();
  EXPECT_EQ(P.park(), Parker::WakeReason::Unparked);
  EXPECT_EQ(P.parkUntil(std::chrono::steady_clock::now() + 5ms),
            Parker::WakeReason::TimedOut);
}

TEST(ParkerTest, ParkUntilTimesOutWithoutToken) {
  Parker P;
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(P.parkFor(2'000'000), Parker::WakeReason::TimedOut);
  EXPECT_GE(std::chrono::steady_clock::now() - Start, 1ms);
}

TEST(ParkerTest, UnparkWakesBlockedOwner) {
  Parker P;
  std::atomic<bool> Woken{false};
  std::thread Owner([&] {
    // Loop: spurious wakes are allowed, a token is required to exit.
    while (P.park() != Parker::WakeReason::Unparked) {
    }
    Woken.store(true);
  });
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(Woken.load());
  P.unpark();
  Owner.join();
  EXPECT_TRUE(Woken.load());
  EXPECT_GE(P.blockedParkCount(), 1u);
}

TEST(ParkerTest, BlockedWakeRecordsLatency) {
  Parker P;
  std::atomic<uint64_t> Latency{~0ull};
  std::thread Owner([&] {
    while (P.park() != Parker::WakeReason::Unparked) {
    }
    Latency.store(P.lastBlockedWakeNanos());
  });
  std::this_thread::sleep_for(20ms);
  P.unpark();
  Owner.join();
  // The park blocked, so the unpark-to-resume delta must be a real,
  // sane measurement (well under the 5s test budget).
  EXPECT_GT(Latency.load(), 0u);
  EXPECT_LT(Latency.load(), 5'000'000'000ull);
}

TEST(ParkerTest, ResetDropsStaleToken) {
  Parker P;
  P.unpark();
  P.reset();
  EXPECT_EQ(P.parkUntil(std::chrono::steady_clock::now() + 2ms),
            Parker::WakeReason::TimedOut);
}

TEST(ParkerTest, AttachedThreadOwnsAParker) {
  ThreadRegistry Registry;
  ThreadContext Ctx = Registry.attach("parker-owner");
  ASSERT_TRUE(Ctx.isValid());
  ASSERT_NE(Ctx.parker(), nullptr);
  Ctx.parker()->unpark();
  EXPECT_EQ(Ctx.parker()->park(), Parker::WakeReason::Unparked);
  Registry.detach(Ctx);
}

TEST(ParkerTest, RecycledIndexStartsWithoutToken) {
  ThreadRegistry Registry;
  ThreadContext First = Registry.attach("first");
  Parker *Pk = First.parker();
  Pk->unpark(); // Leave a stale token behind.
  Registry.detach(First);
  ThreadContext Second = Registry.attach("second");
  // Index recycling must hand the new thread a clean Parker.
  ASSERT_EQ(Second.parker(), Pk);
  EXPECT_EQ(Pk->parkUntil(std::chrono::steady_clock::now() + 2ms),
            Parker::WakeReason::TimedOut);
  Registry.detach(Second);
}

//===----------------------------------------------------------------------===//
// ParkingLot
//===----------------------------------------------------------------------===//

TEST(ParkingLotTest, BucketIndexIsStableAndInRange) {
  int Local = 0;
  size_t Bucket = ParkingLot::bucketIndexOf(&Local);
  EXPECT_LT(Bucket, ParkingLot::NumBuckets);
  EXPECT_EQ(ParkingLot::bucketIndexOf(&Local), Bucket);
}

TEST(ParkingLotTest, FailedValidationNeverSleeps) {
  ParkingLot Lot;
  Parker P;
  int Key;
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(Lot.parkUntil(&Key, P, [] { return false; },
                          Start + 1s),
            ParkingLot::ParkResult::Invalid);
  EXPECT_LT(std::chrono::steady_clock::now() - Start, 500ms);
  EXPECT_EQ(Lot.queuedOn(&Key), 0u);
}

TEST(ParkingLotTest, TimedOutWaiterRemovesItself) {
  ParkingLot Lot;
  Parker P;
  int Key;
  EXPECT_EQ(Lot.parkUntil(&Key, P, [] { return true; },
                          std::chrono::steady_clock::now() + 5ms),
            ParkingLot::ParkResult::TimedOut);
  EXPECT_EQ(Lot.queuedOn(&Key), 0u);
  EXPECT_EQ(Lot.unparkOne(&Key), 0u);
}

TEST(ParkingLotTest, UnparkOneWakesInFifoOrder) {
  ParkingLot Lot;
  int Key;
  constexpr int NumWaiters = 4;
  std::atomic<int> NextSeq{0};
  std::atomic<int> WakeSeq[NumWaiters] = {};
  // Parkers outlive the threads (and every in-flight unpark): a Parker
  // local to the waiter lambda would violate the lifetime contract the
  // library satisfies via registry-owned ThreadInfo storage.
  Parker Parkers[NumWaiters];
  std::vector<std::thread> Waiters;
  for (int I = 0; I < NumWaiters; ++I) {
    Waiters.emplace_back([&, I] {
      EXPECT_EQ(Lot.park(&Key, Parkers[I], [] { return true; }),
                ParkingLot::ParkResult::Unparked);
      WakeSeq[I].store(1 + NextSeq.fetch_add(1));
    });
    // Admit waiters one at a time so the queue order is exactly 0..N-1.
    waitFor([&] { return Lot.queuedOn(&Key) == static_cast<size_t>(I + 1); });
  }
  for (int I = 0; I < NumWaiters; ++I) {
    EXPECT_EQ(Lot.unparkOne(&Key), 1u);
    waitFor([&] { return WakeSeq[I].load() != 0; });
    // The I-th enqueued waiter must be the (I+1)-th to wake.
    EXPECT_EQ(WakeSeq[I].load(), I + 1);
  }
  for (auto &T : Waiters)
    T.join();
  EXPECT_EQ(Lot.queuedOn(&Key), 0u);
}

TEST(ParkingLotTest, UnparkAllWakesEveryWaiterOnKey) {
  ParkingLot Lot;
  int Key;
  constexpr int NumWaiters = 3;
  std::atomic<int> Woken{0};
  Parker Parkers[NumWaiters]; // Must outlive in-flight unparks.
  std::vector<std::thread> Waiters;
  for (int I = 0; I < NumWaiters; ++I)
    Waiters.emplace_back([&, I] {
      EXPECT_EQ(Lot.park(&Key, Parkers[I], [] { return true; }),
                ParkingLot::ParkResult::Unparked);
      Woken.fetch_add(1);
    });
  waitFor([&] { return Lot.queuedOn(&Key) == NumWaiters; });
  EXPECT_EQ(Lot.unparkAll(&Key), static_cast<size_t>(NumWaiters));
  for (auto &T : Waiters)
    T.join();
  EXPECT_EQ(Woken.load(), NumWaiters);
}

TEST(ParkingLotTest, CollidingKeysShareABucketButNotWakes) {
  auto Keys = collidingKeys(2);
  ASSERT_EQ(ParkingLot::bucketIndexOf(Keys[0]),
            ParkingLot::bucketIndexOf(Keys[1]));
  ParkingLot Lot;
  std::atomic<bool> Woken{false};
  Parker P; // Must outlive the in-flight unpark.
  std::thread Waiter([&] {
    EXPECT_EQ(Lot.park(Keys[0], P, [] { return true; }),
              ParkingLot::ParkResult::Unparked);
    Woken.store(true);
  });
  waitFor([&] { return Lot.queuedOn(Keys[0]) == 1; });
  // Waking the *other* key in the same bucket must not touch our waiter.
  EXPECT_EQ(Lot.unparkOne(Keys[1]), 0u);
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(Woken.load());
  EXPECT_EQ(Lot.unparkOne(Keys[0]), 1u);
  Waiter.join();
  EXPECT_TRUE(Woken.load());
}

// The TSan-preset target: continuous park/unpark races on keys that all
// hash to one bucket, so enqueue, self-removal, dequeue-before-unpark,
// and stale-token absorption all interleave on one bucket mutex.
TEST(ParkingLotStressTest, ConcurrentParkUnparkOnCollidingKeys) {
  constexpr int NumWaiters = 4;
  constexpr int Rounds = 300;
  auto Keys = collidingKeys(NumWaiters);
  ParkingLot Lot;
  std::atomic<bool> Go[NumWaiters] = {};
  std::atomic<int> Done[NumWaiters] = {};
  Parker Parkers[NumWaiters]; // Must outlive in-flight unparks.
  std::vector<std::thread> Waiters;
  for (int I = 0; I < NumWaiters; ++I)
    Waiters.emplace_back([&, I] {
      Parker &P = Parkers[I];
      for (int R = 0; R < Rounds; ++R) {
        for (;;) {
          // The 50ms deadline is a liveness backstop only; every round
          // normally ends by signal (validation failure or unpark).
          Lot.parkUntil(Keys[I], P,
                        [&] { return !Go[I].load(std::memory_order_acquire); },
                        std::chrono::steady_clock::now() + 50ms);
          if (Go[I].exchange(false, std::memory_order_acq_rel))
            break;
        }
        Done[I].store(R + 1, std::memory_order_release);
      }
    });
  for (int R = 0; R < Rounds; ++R) {
    for (int I = 0; I < NumWaiters; ++I) {
      Go[I].store(true, std::memory_order_release);
      Lot.unparkOne(Keys[I]);
    }
    for (int I = 0; I < NumWaiters; ++I)
      waitFor([&] { return Done[I].load(std::memory_order_acquire) > R; });
  }
  for (auto &T : Waiters)
    T.join();
  for (int I = 0; I < NumWaiters; ++I)
    EXPECT_EQ(Lot.queuedOn(Keys[I]), 0u);
}

//===----------------------------------------------------------------------===//
// FatLock on the substrate: FIFO fairness
//===----------------------------------------------------------------------===//

namespace {

class SubstrateFatLockTest : public ::testing::Test {
protected:
  ThreadRegistry Registry;
  FatLock Lock;
  ThreadContext Main;

  void SetUp() override { Main = Registry.attach("main"); }
  void TearDown() override { Registry.detach(Main); }
};

} // namespace

TEST_F(SubstrateFatLockTest, WaitSetWakesInStrictFifoOrder) {
  constexpr int NumWaiters = 6;
  std::atomic<int> NextSeq{0};
  std::atomic<int> WakeSeq[NumWaiters] = {};
  std::vector<std::thread> Waiters;
  for (int I = 0; I < NumWaiters; ++I) {
    Waiters.emplace_back([&, I] {
      ScopedThreadAttachment Attachment(Registry, "waiter");
      Lock.lock(Attachment.context());
      Lock.wait(Attachment.context());
      WakeSeq[I].store(1 + NextSeq.fetch_add(1));
      Lock.unlock(Attachment.context());
    });
    // Admit into the wait set one at a time to pin the FIFO order.
    waitFor([&] { return Lock.waitSetSize() == static_cast<uint32_t>(I + 1); });
  }
  for (int I = 0; I < NumWaiters; ++I) {
    Lock.lock(Main);
    EXPECT_EQ(Lock.notify(Main, /*All=*/false), NotifyStatus::Ok);
    Lock.unlock(Main);
    waitFor([&] { return WakeSeq[I].load() != 0; });
    EXPECT_EQ(WakeSeq[I].load(), I + 1) << "notify broke wait-set FIFO";
  }
  for (auto &T : Waiters)
    T.join();
}

TEST_F(SubstrateFatLockTest, EntryQueueGrantsInStrictFifoOrder) {
  constexpr int NumContenders = 5;
  std::atomic<int> NextSeq{0};
  std::atomic<int> GrantSeq[NumContenders] = {};
  Lock.lock(Main);
  std::vector<std::thread> Contenders;
  for (int I = 0; I < NumContenders; ++I) {
    Contenders.emplace_back([&, I] {
      ScopedThreadAttachment Attachment(Registry, "contender");
      Lock.lock(Attachment.context());
      GrantSeq[I].store(1 + NextSeq.fetch_add(1));
      Lock.unlock(Attachment.context());
    });
    // Serialize arrivals so entry order is exactly 0..N-1.
    waitFor([&] {
      return Lock.entryQueueLength() == static_cast<uint32_t>(I + 1);
    });
  }
  Lock.unlock(Main);
  for (auto &T : Contenders)
    T.join();
  for (int I = 0; I < NumContenders; ++I)
    EXPECT_EQ(GrantSeq[I].load(), I + 1) << "handoff broke entry FIFO";
}

TEST_F(SubstrateFatLockTest, TimedEntrantTimeoutHandsWakeToNewHead) {
  // A timed entrant that gives up while the monitor is free must pass
  // the releaser's handoff on to the next queued thread, not strand it.
  Lock.lock(Main);
  std::atomic<bool> SecondAcquired{false};
  std::thread First([&] {
    ScopedThreadAttachment Attachment(Registry, "first");
    EXPECT_EQ(Lock.lock(Attachment.context(), 40'000'000),
              FatLock::TimedResult::TimedOut);
  });
  waitFor([&] { return Lock.entryQueueLength() == 1; });
  std::thread Second([&] {
    ScopedThreadAttachment Attachment(Registry, "second");
    Lock.lock(Attachment.context());
    SecondAcquired.store(true);
    Lock.unlock(Attachment.context());
  });
  waitFor([&] { return Lock.entryQueueLength() == 2; });
  // Keep holding while the first entrant times out behind us, then
  // release: the grant must reach the second entrant even though the
  // original queue head departed.
  First.join();
  Lock.unlock(Main);
  Second.join();
  EXPECT_TRUE(SecondAcquired.load());
  EXPECT_EQ(Lock.entryQueueLength(), 0u);
}

//===----------------------------------------------------------------------===//
// park.spurious failpoint
//===----------------------------------------------------------------------===//

namespace {

class ParkSpuriousTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!failpoint::compiledIn())
      GTEST_SKIP() << "failpoint sites not compiled in";
    failpoint::disarmAll();
  }
  void TearDown() override { failpoint::disarmAll(); }
};

} // namespace

TEST_F(ParkSpuriousTest, ArmedSiteForcesSpuriousReturn) {
  failpoint::arm(failpoint::Id::ParkSpurious, failpoint::Mode::Always);
  Parker P;
  // Every park returns Spurious before ever publishing the parked
  // state — even with a 1s deadline and no token.
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(P.parkUntil(Start + 1s), Parker::WakeReason::Spurious);
  EXPECT_LT(std::chrono::steady_clock::now() - Start, 500ms);
  EXPECT_EQ(P.blockedParkCount(), 0u);
  EXPECT_GE(failpoint::hitCount(failpoint::Id::ParkSpurious), 1u);
}

TEST_F(ParkSpuriousTest, PendingTokenBeatsInjection) {
  failpoint::arm(failpoint::Id::ParkSpurious, failpoint::Mode::Always);
  Parker P;
  P.unpark();
  // The pending-token fast path consumes the token before the site.
  EXPECT_EQ(P.park(), Parker::WakeReason::Unparked);
}

TEST_F(ParkSpuriousTest, WaitNotifySurvivesSpuriousInjection) {
  // Inject a spurious return on every third park: wait() must not
  // report Notified early, and notify() must still wake exactly once.
  failpoint::arm(failpoint::Id::ParkSpurious, failpoint::Mode::OneIn, 3);
  ThreadRegistry Registry;
  ThreadContext Main = Registry.attach("main");
  FatLock Lock;
  std::atomic<int> Notified{0};
  constexpr int Rounds = 50;
  std::thread Waiter([&] {
    ScopedThreadAttachment Attachment(Registry, "waiter");
    for (int R = 0; R < Rounds; ++R) {
      Lock.lock(Attachment.context());
      EXPECT_EQ(Lock.wait(Attachment.context()), WaitStatus::Notified);
      Notified.fetch_add(1);
      Lock.unlock(Attachment.context());
    }
  });
  for (int R = 0; R < Rounds; ++R) {
    waitFor([&] { return Lock.waitSetSize() == 1; });
    Lock.lock(Main);
    EXPECT_EQ(Lock.notify(Main, /*All=*/false), NotifyStatus::Ok);
    Lock.unlock(Main);
    waitFor([&] { return Notified.load() == R + 1; });
  }
  Waiter.join();
  EXPECT_EQ(Notified.load(), Rounds);
  EXPECT_GE(failpoint::hitCount(failpoint::Id::ParkSpurious), 1u);
  Registry.detach(Main);
}

//===----------------------------------------------------------------------===//
// parkinglot.timeout-race: a consumed wake is re-issued (chain wake)
//===----------------------------------------------------------------------===//

namespace {

class ParkingLotTimeoutRaceTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!failpoint::compiledIn())
      GTEST_SKIP() << "failpoint sites not compiled in";
    failpoint::disarmAll();
  }
  void TearDown() override { failpoint::disarmAll(); }
};

} // namespace

// Regression: a waiter that timed out while an unparkOne had already
// captured (dequeued) it consumed that wake silently — the waiter the
// waker actually meant to run next slept forever.  The fix re-issues
// the consumed wake to the next queued waiter on the same key.  The
// failpoint holds the window between A's parkUntil returning and A
// re-taking its bucket mutex open for 20ms, so the capture lands inside
// it deterministically.  Without the fix, B is stranded and B.join()
// hangs until the suite timeout.
TEST_F(ParkingLotTimeoutRaceTest, TimedOutWaiterReissuesConsumedWake) {
  failpoint::arm(failpoint::Id::ParkingLotTimeoutRace,
                 failpoint::Mode::Always);
  ParkingLot Lot;
  int Key = 0;
  Parker PA, PB; // Must outlive in-flight unparks.
  const auto DeadlineA = std::chrono::steady_clock::now() + 100ms;
  std::atomic<int> ResultA{-1}, ResultB{-1};
  std::thread A([&] {
    ResultA = static_cast<int>(
        Lot.parkUntil(&Key, PA, [] { return true; }, DeadlineA));
  });
  waitFor([&] { return Lot.queuedOn(&Key) == 1; });
  std::thread B([&] {
    ResultB = static_cast<int>(Lot.park(&Key, PB, [] { return true; }));
  });
  waitFor([&] { return Lot.queuedOn(&Key) == 2; });
  // Aim the wake at the widened window: just after A's deadline, while
  // A is still on its way back to the bucket.  (If the unpark instead
  // lands while A is still in the kernel, A returns Unparked with its
  // deadline expired — the same re-issue branch runs; the test holds
  // under either interleaving.)
  std::this_thread::sleep_until(DeadlineA + 5ms);
  EXPECT_EQ(Lot.unparkOne(&Key), 1u);
  A.join();
  B.join(); // Hangs without the chain wake.
  EXPECT_EQ(ResultA.load(),
            static_cast<int>(ParkingLot::ParkResult::TimedOut));
  EXPECT_EQ(ResultB.load(),
            static_cast<int>(ParkingLot::ParkResult::Unparked));
  EXPECT_EQ(Lot.queuedOn(&Key), 0u);
  EXPECT_GE(failpoint::hitCount(failpoint::Id::ParkingLotTimeoutRace), 1u);
}
