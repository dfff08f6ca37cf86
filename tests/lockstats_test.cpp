//===- tests/lockstats_test.cpp - LockStats epoch-reset tests -------------===//
//
// Covers the epoch semantics of LockStats::reset() and the regression
// that motivated them: reset() used to zero the striped counters one
// stripe at a time, so a snapshot overlapping the wipe mixed pre- and
// post-reset values.  The signature tear: Releases was wiped first and
// FastPathAcquires read first, so a racing snapshot could report
// millions more acquisitions than releases — a "negative delta" in any
// monitoring pairing.  reset() now captures a baseline under a mutex
// and snapshot() subtracts it, so the hammer test below must never see
// a pairing violation beyond small in-flight slack.  The suite is also
// pointed at by the tsan preset: the baseline handoff itself must be
// race-free.
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

TEST(LockStatsTest, ResetStartsANewEpoch) {
  LockStats Stats;
  Stats.recordFastPathAcquire();
  Stats.recordRelease();
  Stats.recordAcquire(2);
  Stats.recordRelease();
  Stats.recordWakeLatency(5000);
  EXPECT_EQ(Stats.totalAcquisitions(), 2u);
  EXPECT_EQ(Stats.totalReleases(), 2u);

  Stats.reset();
  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_EQ(S.Acquisitions, 0u);
  EXPECT_EQ(S.Releases, 0u);
  EXPECT_EQ(S.FastPath, 0u);
  EXPECT_EQ(S.DepthBuckets[1], 0u);
  EXPECT_EQ(S.Wakes, 0u);
  EXPECT_EQ(S.WakeNanosTotal, 0u);
  EXPECT_EQ(S.WakeNanosMax, 0u);

  // The new epoch counts from zero; the high-water mark restarts too.
  Stats.recordFastPathAcquire();
  Stats.recordWakeLatency(3000);
  EXPECT_EQ(Stats.totalAcquisitions(), 1u);
  EXPECT_EQ(Stats.totalReleases(), 0u);
  EXPECT_EQ(Stats.snapshot().WakeNanosMax, 3000u);
}

TEST(LockStatsTest, WakeCountMeanAndMaxFollowRecordedLatencies) {
  LockStats Stats;
  EXPECT_EQ(Stats.wakeCount(), 0u);
  EXPECT_EQ(Stats.snapshot().avgWakeNanos(), 0u);

  for (uint64_t Nanos : {500u, 1500u, 40000u, 2000u})
    Stats.recordWakeLatency(Nanos);
  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_EQ(Stats.wakeCount(), 4u);
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

TEST(LockStatsTest, RepeatedResetsStack) {
  LockStats Stats;
  for (int Epoch = 0; Epoch < 4; ++Epoch) {
    for (int I = 0; I <= Epoch; ++I) {
      Stats.recordFastPathAcquire();
      Stats.recordRelease();
    }
    EXPECT_EQ(Stats.totalAcquisitions(), static_cast<uint64_t>(Epoch + 1));
    Stats.reset();
    EXPECT_EQ(Stats.totalAcquisitions(), 0u);
  }
}

// The regression hammer: writers bump paired counters (release first,
// then one acquire), a resetter hammers reset(), and the main thread
// snapshots throughout.  Because every writer records its release
// before its acquire, and snapshot() reads the acquire counters before
// Releases, any coherent view satisfies
//   Acquisitions <= Releases (+ small in-flight / epoch slack).
// The old stripe-wiping reset() broke this by the full pre-reset count
// (>= Floor, driven past a million below); the epoch-based reset() can
// only be off by the handful of operations in flight while a baseline
// is captured, which Tolerance generously covers.
TEST(LockStatsTest, ConcurrentResetAndSnapshotNeverTearPairing) {
  LockStats Stats;
  constexpr int NumWriters = 3;
  constexpr uint64_t Floor = 1000000;
  constexpr uint64_t Tolerance = 500000;

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

  // Grow the counters well past Floor first, so the old bug's tear
  // (proportional to everything recorded so far) dwarfs Tolerance.
  auto Deadline = std::chrono::steady_clock::now() + 100s;
  while (Stats.snapshot().Releases < Floor) {
    ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
        << "writers too slow to reach the floor";
    std::this_thread::yield();
  }

  std::atomic<bool> StopReset{false};
  std::thread Resetter([&Stats, &StopReset] {
    while (!StopReset.load(std::memory_order_relaxed))
      Stats.reset();
  });

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
  StopReset.store(true, std::memory_order_relaxed);
  Resetter.join();
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Writers)
    T.join();

  EXPECT_GT(SnapshotsTaken, 0u);
  EXPECT_LE(MaxViolation, Tolerance)
      << "snapshot raced reset into a torn pairing";
}
