//===- core/LockStats.cpp - Lock operation characterization ---------------===//

#include "core/LockStats.h"

#include <cstdio>

using namespace thinlocks;

LockStats::Snapshot LockStats::snapshot() const {
  Snapshot S;
  S.FastPath = FastPathAcquires.value();
  // Fast-path acquires are depth-1 by construction; fold them into
  // bucket 0 so the buckets (and their sum) cover every acquisition.
  S.DepthBuckets[0] = S.FastPath;
  for (unsigned Bucket = 0; Bucket < NumDepthBuckets; ++Bucket) {
    S.DepthBuckets[Bucket] += DepthBuckets[Bucket].value();
    S.Acquisitions += S.DepthBuckets[Bucket];
  }
  S.Releases = Releases.value();
  S.FatPath = FatPath.value();
  S.SpinIterations = SpinIterations.value();
  S.ContentionInflations = ContentionInflations.value();
  S.OverflowInflations = OverflowInflations.value();
  S.WaitInflations = WaitInflations.value();
  S.Deflations = Deflations.value();
  S.EmergencyInflations = EmergencyInflations.value();
  S.TimedOutAcquisitions = TimedOutAcquisitions.value();
  S.DeadlocksDetected = DeadlocksDetected.value();
  S.Wakes = Wakes.value();
  S.WakeNanosTotal = WakeNanosTotal.value();
  S.WakeNanosMax = WakeNanosMax.load(std::memory_order_relaxed);
  return S;
}

double LockStats::Snapshot::depthFraction(unsigned Bucket) const {
  if (Acquisitions == 0)
    return 0.0;
  return static_cast<double>(DepthBuckets[Bucket]) /
         static_cast<double>(Acquisitions);
}

std::string LockStats::summary() const {
  Snapshot S = snapshot();
  char Buffer[512];
  std::snprintf(
      Buffer, sizeof(Buffer),
      "locks=%llu unlocks=%llu fast=%llu fat=%llu spins=%llu\n"
      "inflations: contention=%llu overflow=%llu wait=%llu "
      "emergency=%llu deflations=%llu\n"
      "degraded: timeouts=%llu deadlocks=%llu\n"
      "depth: first=%.1f%% second=%.1f%% third=%.1f%% fourth+=%.1f%%\n"
      "wake: count=%llu avg=%.1fus max=%.1fus\n",
      static_cast<unsigned long long>(S.Acquisitions),
      static_cast<unsigned long long>(S.Releases),
      static_cast<unsigned long long>(S.FastPath),
      static_cast<unsigned long long>(S.FatPath),
      static_cast<unsigned long long>(S.SpinIterations),
      static_cast<unsigned long long>(S.ContentionInflations),
      static_cast<unsigned long long>(S.OverflowInflations),
      static_cast<unsigned long long>(S.WaitInflations),
      static_cast<unsigned long long>(S.EmergencyInflations),
      static_cast<unsigned long long>(S.Deflations),
      static_cast<unsigned long long>(S.TimedOutAcquisitions),
      static_cast<unsigned long long>(S.DeadlocksDetected),
      S.depthFraction(0) * 100.0, S.depthFraction(1) * 100.0,
      S.depthFraction(2) * 100.0, S.depthFraction(3) * 100.0,
      static_cast<unsigned long long>(S.Wakes),
      static_cast<double>(S.avgWakeNanos()) / 1000.0,
      static_cast<double>(S.WakeNanosMax) / 1000.0);
  return Buffer;
}
