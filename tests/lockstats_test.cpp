//===- tests/lockstats_test.cpp - LockStats snapshot tests ----------------===//
//
// snapshot() is LockStats' only read.  These tests cover the wake
// accounting it derives and its coherence while other threads record:
// the hammer below must never see more acquisitions than releases beyond
// the operations in flight.  The tsan preset runs the suite too, so the
// striped counters' concurrent reads and writes must be race-free.
//
//===----------------------------------------------------------------------===//

#include "core/LockStats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace thinlocks;
using namespace std::chrono_literals;

namespace {

/// ~32 dependent multiplies: slows a writer iteration enough that a
/// scheduler quantum spans bounded work, keeping the hammer test's
/// in-flight slack far below its tolerance on a single-CPU machine.
uint32_t slowWork(uint32_t X) {
  for (int I = 0; I < 32; ++I)
    X = X * 1664525u + 1013904223u;
  return X;
}

} // namespace

TEST(LockStatsTest, WakeCountMeanAndMaxFollowRecordedLatencies) {
  LockStats Stats;
  EXPECT_EQ(Stats.snapshot().Wakes, 0u);
  EXPECT_EQ(Stats.snapshot().avgWakeNanos(), 0u);

  for (uint64_t Nanos : {500u, 1500u, 40000u, 2000u})
    Stats.recordWakeLatency(Nanos);
  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_EQ(S.Wakes, 4u);
  EXPECT_EQ(S.WakeNanosTotal, 44000u);
  EXPECT_EQ(S.avgWakeNanos(), 11000u);
  EXPECT_EQ(S.WakeNanosMax, 40000u);
  // A wake is not an acquisition: no other counter moves.
  EXPECT_EQ(S.Acquisitions, 0u);
  EXPECT_EQ(S.Releases, 0u);

  // A smaller later latency raises the count but leaves the maximum.
  Stats.recordWakeLatency(1000);
  S = Stats.snapshot();
  EXPECT_EQ(S.Wakes, 5u);
  EXPECT_EQ(S.avgWakeNanos(), 9000u);
  EXPECT_EQ(S.WakeNanosMax, 40000u);
}

// The coherence hammer: writers bump paired counters (release first,
// then one acquire) while the main thread snapshots throughout.  Because
// every writer records its release before its acquire, and snapshot()
// reads the acquire counters before Releases, any coherent view
// satisfies
//   Acquisitions <= Releases + (one in-flight operation per writer).
// A snapshot that read Releases first, or mixed two points in time,
// would break it by however many operations ran while it read.
TEST(LockStatsTest, ConcurrentSnapshotsNeverTearPairing) {
  LockStats Stats;
  constexpr int NumWriters = 3;
  constexpr uint64_t Floor = 1000000;

  std::atomic<bool> Stop{false};
  std::atomic<uint32_t> Sink{0};
  std::vector<std::thread> Writers;
  for (int W = 0; W < NumWriters; ++W) {
    Writers.emplace_back([&Stats, &Stop, &Sink, W] {
      uint32_t X = static_cast<uint32_t>(W + 1);
      while (!Stop.load(std::memory_order_relaxed)) {
        Stats.recordRelease();
        if (X & 1)
          Stats.recordFastPathAcquire();
        else
          Stats.recordAcquire(1 + (X % 4));
        X = slowWork(X);
      }
      Sink.fetch_add(X, std::memory_order_relaxed);
    });
  }

  // Let the writers run well past Floor first, so every snapshot below
  // overlaps a stream of recording.
  auto Deadline = std::chrono::steady_clock::now() + 100s;
  while (Stats.snapshot().Releases < Floor) {
    ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
        << "writers too slow to reach the floor";
    std::this_thread::yield();
  }

  uint64_t MaxViolation = 0;
  uint64_t SnapshotsTaken = 0;
  auto End = std::chrono::steady_clock::now() + 250ms;
  while (std::chrono::steady_clock::now() < End) {
    LockStats::Snapshot S = Stats.snapshot();
    ++SnapshotsTaken;
    if (S.Acquisitions > S.Releases + NumWriters) {
      uint64_t Violation = S.Acquisitions - S.Releases;
      if (Violation > MaxViolation)
        MaxViolation = Violation;
    }
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Writers)
    T.join();

  EXPECT_GT(SnapshotsTaken, 0u);
  EXPECT_EQ(MaxViolation, 0u) << "a snapshot tore the acquire/release pairing";
}
