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
/// This is the library's one lock census: the Table 1 and Figure 3
/// drivers, the examples and perfbench's traced phase all count through
/// it, and all read it through snapshot().
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_CORE_LOCKSTATS_H
#define THINLOCKS_CORE_LOCKSTATS_H

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
  /// Snapshot::FastPath *and* depth bucket 0 are both derived from it
  /// (slow-path depth-1 acquires land in DepthBuckets[0] via
  /// recordAcquire, and snapshot() sums the two).
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

  /// Reads every counter once into a coherent copy.  This is the only
  /// read: per-field reads taken one at a time disagree with each other
  /// while other threads keep recording.  A caller that wants a fresh
  /// count constructs a new LockStats.
  Snapshot snapshot() const;

  /// Renders a human-readable multi-line summary.
  std::string summary() const;

private:
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
};

} // namespace thinlocks

#endif // THINLOCKS_CORE_LOCKSTATS_H
