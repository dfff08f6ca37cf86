//===- core/LockStats.h - Lock operation characterization ------*- C++ -*-===//
///
/// \file
/// Instrumentation counters behind the paper's locking characterization:
/// Table 1's synchronization counts and Figure 3's nesting-depth
/// breakdown (First / Second / Third / Fourth-or-deeper lock operations),
/// plus inflation causes.  Collection is optional: protocols take a
/// nullable LockStats* and skip all recording when it is null, so
/// measurement runs pay nothing.
///
/// Counters are striped (see support/StatsCounter.h), so recording from
/// many threads does not serialize on shared cache lines.  Every
/// acquisition lands in exactly one depth bucket, so the total
/// acquisition count is derived as the bucket sum rather than kept as a
/// thirteenth counter — the acquire hot path bumps one counter, not two.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_CORE_LOCKSTATS_H
#define THINLOCKS_CORE_LOCKSTATS_H

#include "support/Mutex.h"
#include "support/StatsCounter.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace thinlocks {

/// Shared, thread-safe lock-event counters.
class LockStats {
public:
  /// Figure 3 buckets: index 0 = first lock (object was unlocked),
  /// 1 = second (nested once), 2 = third, 3 = fourth or deeper.
  static constexpr unsigned NumDepthBuckets = 4;

  /// A coherent point-in-time copy of every counter.  Each field is read
  /// once from the live (striped) counters, so derived views — summary
  /// lines, depth fractions, ratios — agree with each other even while
  /// other threads keep recording.
  struct Snapshot {
    uint64_t Acquisitions = 0;
    uint64_t Releases = 0;
    uint64_t FastPath = 0;
    uint64_t FatPath = 0;
    uint64_t SpinIterations = 0;
    uint64_t ContentionInflations = 0;
    uint64_t OverflowInflations = 0;
    uint64_t WaitInflations = 0;
    uint64_t Deflations = 0;
    uint64_t EmergencyInflations = 0;
    uint64_t TimedOutAcquisitions = 0;
    uint64_t DeadlocksDetected = 0;
    std::array<uint64_t, NumDepthBuckets> DepthBuckets{};
    /// Wake handoffs: their count, summed latency and worst latency.
    uint64_t Wakes = 0;
    uint64_t WakeNanosTotal = 0;
    uint64_t WakeNanosMax = 0;

    /// \returns the mean unpark-to-resume latency in nanoseconds (0 when
    /// no wakes were recorded).
    uint64_t avgWakeNanos() const {
      return Wakes == 0 ? 0 : WakeNanosTotal / Wakes;
    }

    uint64_t inflations() const {
      return ContentionInflations + OverflowInflations + WaitInflations;
    }

    /// \returns bucket \p Bucket as a fraction of all acquisitions (0
    /// when nothing has been recorded).
    double depthFraction(unsigned Bucket) const;
  };

  /// Records one acquisition at nesting depth \p Depth (1-based).
  void recordAcquire(uint32_t Depth) {
    unsigned Bucket = Depth >= NumDepthBuckets ? NumDepthBuckets - 1
                                               : Depth - 1;
    DepthBuckets[Bucket].increment();
  }

  /// Records a depth-1 acquisition taken via the thin CAS fast path.
  /// One counter bump on the hottest path in the system:
  /// fastPathAcquisitions() *and* depth bucket 0 are both derived from
  /// it (slow-path depth-1 acquires land in DepthBuckets[0] via
  /// recordAcquire, and the views sum the two).
  void recordFastPathAcquire() { FastPathAcquires.increment(); }

  void recordRelease() { Releases.increment(); }
  void recordFatPath() { FatPath.increment(); }
  void recordSpinIterations(uint64_t N) { SpinIterations.increment(N); }
  void recordContentionInflation() { ContentionInflations.increment(); }
  void recordOverflowInflation() { OverflowInflations.increment(); }
  void recordWaitInflation() { WaitInflations.increment(); }
  void recordDeflation() { Deflations.increment(); }
  /// Inflation landed on the shared emergency monitor because the
  /// MonitorTable was exhausted (degraded but correct mode).
  void recordEmergencyInflation() { EmergencyInflations.increment(); }
  /// A tryLockFor() deadline expired without acquiring.
  void recordTimedOut() { TimedOutAcquisitions.increment(); }
  /// The owner-graph walker confirmed a waits-for cycle.
  void recordDeadlock() { DeadlocksDetected.increment(); }

  /// Records one wake handoff that took \p Nanos from unpark to resume
  /// (measured by the woken thread's Parker; fed in by FatLock).
  void recordWakeLatency(uint64_t Nanos) {
    Wakes.increment();
    WakeNanosTotal.increment(Nanos);
    uint64_t Max = WakeNanosMax.load(std::memory_order_relaxed);
    while (Nanos > Max &&
           !WakeNanosMax.compare_exchange_weak(Max, Nanos,
                                               std::memory_order_relaxed)) {
    }
  }

  /// Reads every counter once into a coherent copy, relative to the
  /// last reset() epoch.
  Snapshot snapshot() const TL_EXCLUDES(BaselineMutex);

  uint64_t totalAcquisitions() const { return snapshot().Acquisitions; }
  uint64_t totalReleases() const { return snapshot().Releases; }
  uint64_t fastPathAcquisitions() const { return snapshot().FastPath; }
  uint64_t fatPathAcquisitions() const { return snapshot().FatPath; }
  uint64_t spinIterations() const { return snapshot().SpinIterations; }
  uint64_t contentionInflations() const {
    return snapshot().ContentionInflations;
  }
  uint64_t overflowInflations() const {
    return snapshot().OverflowInflations;
  }
  uint64_t waitInflations() const { return snapshot().WaitInflations; }
  uint64_t inflations() const { return snapshot().inflations(); }
  uint64_t deflations() const { return snapshot().Deflations; }
  uint64_t emergencyInflations() const {
    return snapshot().EmergencyInflations;
  }
  uint64_t timedOutAcquisitions() const {
    return snapshot().TimedOutAcquisitions;
  }
  uint64_t deadlocksDetected() const {
    return snapshot().DeadlocksDetected;
  }

  /// \returns how many wake handoffs have been recorded.
  uint64_t wakeCount() const { return snapshot().Wakes; }

  /// \returns the acquisition count in Figure 3 bucket \p Bucket (0..3).
  uint64_t depthBucket(unsigned Bucket) const {
    return snapshot().DepthBuckets[Bucket];
  }

  /// \returns bucket \p Bucket as a fraction of all acquisitions (0 when
  /// nothing has been recorded).
  double depthFraction(unsigned Bucket) const;

  /// Starts a new counting epoch: subsequent snapshots and accessors
  /// report only events recorded after this call.  *Epoch-based*: the
  /// live striped counters are never zeroed (zeroing 36 stripes while
  /// writers bump and readers sum them tears — a snapshot overlapping
  /// the stripe-by-stripe wipe mixes pre- and post-reset stripe values
  /// and can even make paired counters go "negative", e.g. more
  /// acquires than releases by millions).  Instead reset() captures a
  /// baseline snapshot under a mutex and snapshot() subtracts it, so a
  /// reset racing concurrent recording and snapshotting yields only the
  /// usual in-flight slack, never torn totals.
  void reset() TL_EXCLUDES(BaselineMutex);

  /// Renders a human-readable multi-line summary.
  std::string summary() const;

private:
  /// One pass over the live counters, ignoring the epoch baseline.
  Snapshot rawSnapshot() const;

  StatsCounter Releases;
  StatsCounter FastPathAcquires;
  StatsCounter FatPath;
  StatsCounter SpinIterations;
  StatsCounter ContentionInflations;
  StatsCounter OverflowInflations;
  StatsCounter WaitInflations;
  StatsCounter Deflations;
  StatsCounter EmergencyInflations;
  StatsCounter TimedOutAcquisitions;
  StatsCounter DeadlocksDetected;
  std::array<StatsCounter, NumDepthBuckets> DepthBuckets;
  StatsCounter Wakes;
  StatsCounter WakeNanosTotal;
  std::atomic<uint64_t> WakeNanosMax{0};
  /// The raw-counter values at the last reset(); subtracted from every
  /// raw snapshot.  Guarded by BaselineMutex (reset/snapshot only — the
  /// recording hot paths never touch it).
  mutable Mutex BaselineMutex;
  Snapshot Baseline TL_GUARDED_BY(BaselineMutex);
};

} // namespace thinlocks

#endif // THINLOCKS_CORE_LOCKSTATS_H
