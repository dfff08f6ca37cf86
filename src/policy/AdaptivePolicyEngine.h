//===- policy/AdaptivePolicyEngine.h - Profiler-driven deflation *- C++ -*-===//
///
/// \file
/// The profiler-driven half of the lock lifecycle (DESIGN.md §13).  A
/// tick — driven by whoever owns the sampling cadence: the soak
/// harness's ticker, a bench driver, a VM housekeeping thread — drains
/// the hot-lock profiler (obs/LockEventCollector), diffs each profiled
/// object's cumulative row against the previous tick's, and counts the
/// ticks each tracked object has been idle.  With
/// PolicyConfig::SpeculativeDeflation on, each tick then retires the
/// quiescent fat locks of cold objects (idle for ColdTicks), longest
/// idle first, through MonitorTable::deflateIfQuiescent.
///
/// The engine publishes nothing the lock paths read: ThinLock's slow
/// path has no per-object policy (DESIGN.md §13 has the A/B that settled
/// it).
///
/// Threading: tick() serializes itself (concurrent callers queue on an
/// internal mutex); the lock paths never touch that mutex.
///
/// Speculative deflation dereferences tracked object addresses, so it is
/// OFF by default: enabling PolicyConfig::SpeculativeDeflation is the
/// caller's assertion that every object whose events reach the collector
/// outlives the engine (true for the soak harness and the benches, which
/// own their heaps; a VM would gate this on its GC epoch).
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_POLICY_ADAPTIVEPOLICYENGINE_H
#define THINLOCKS_POLICY_ADAPTIVEPOLICYENGINE_H

#include "support/Mutex.h"

#include <cstddef>
#include <cstdint>
#include <unordered_map>

namespace thinlocks {

class MonitorTable;
class ThreadContext;

namespace obs {
class LockEventCollector;
} // namespace obs

namespace policy {

/// Engine settings; the tick's bounds are constants.
struct PolicyConfig {
  /// Retire cold objects' quiescent fat locks.  OFF by default: see the
  /// file comment for the object-lifetime contract this asserts.
  bool SpeculativeDeflation = false;
};

/// The engine's ledger (mutually consistent snapshot via counters()).
struct PolicyCounters {
  uint64_t Ticks = 0;
  /// Always 0: the engine publishes no decisions.  Promotions, Demotions,
  /// KeepFatDecisions and PublishFailures stay for the readers that
  /// still report them (perfbench's sessions_open ledger).
  uint64_t Promotions = 0;
  uint64_t Demotions = 0;
  uint64_t KeepFatDecisions = 0;
  /// Cold fat locks retired by the engine's scan.
  uint64_t SpeculativeDeflations = 0;
  /// Candidates examined by the scan (including unsuccessful).
  uint64_t DeflationScans = 0;
  /// Always 0 (see Promotions).
  uint64_t PublishFailures = 0;
  /// Objects currently tracked (baseline and idle count held).
  uint64_t ObjectsTracked = 0;
};

class AdaptivePolicyEngine {
public:
  /// \param Collector the profiler to consume (tick() drains it).
  /// \param Monitors the table through which the deflation scan retires
  /// quiescent fat locks.
  AdaptivePolicyEngine(obs::LockEventCollector &Collector,
                       MonitorTable &Monitors,
                       PolicyConfig Config = PolicyConfig());

  /// Idle ticks (ticks, not time, so a bench that ticks per burst and
  /// the soak's 10ms cadence share it) after which a tracked object is
  /// cold and becomes a deflation candidate.  Tracking state is dropped
  /// after 2x.
  static constexpr unsigned ColdTicks = 8;
  /// Deflation candidates examined per tick (bounds tick latency).
  static constexpr size_t DeflateScanLimit = 32;

  AdaptivePolicyEngine(const AdaptivePolicyEngine &) = delete;
  AdaptivePolicyEngine &operator=(const AdaptivePolicyEngine &) = delete;

  /// One sampling step: drain the profiler, update idle counts, run the
  /// deflation scan.  Safe from any thread; concurrent calls serialize.
  /// \p Recorder, when non-null and tracing is enabled, receives the
  /// scan's Deflate events into its ring so they land in the same
  /// timeline as the contention they follow.
  void tick(const ThreadContext *Recorder = nullptr) TL_EXCLUDES(Mu);

  PolicyCounters counters() const TL_EXCLUDES(Mu);

private:
  /// Per-object idle state and cumulative baseline as of the last tick.
  struct Tracked {
    uint32_t ClassIndex = 0;
    /// Sum of the profiler row's cumulative activity counts; a tick that
    /// finds it unchanged is idle.
    uint64_t Activity = 0;
    unsigned IdleTicks = 0;
    /// The last tick (Counters.Ticks) whose profiler table listed this
    /// object; objects it missed take an idle step.
    uint64_t SeenInTick = 0;
    /// Tracking order: ties in idle length deflate oldest-tracked first.
    uint64_t Order = 0;
  };

  void deflateScan(const ThreadContext *Recorder) TL_REQUIRES(Mu);

  obs::LockEventCollector &Collector;
  MonitorTable &Monitors;
  const PolicyConfig Config;

  mutable Mutex Mu;
  std::unordered_map<uint64_t, Tracked> Objects TL_GUARDED_BY(Mu);
  uint64_t NextOrder TL_GUARDED_BY(Mu) = 0;
  PolicyCounters Counters TL_GUARDED_BY(Mu);
};

} // namespace policy
} // namespace thinlocks

#endif // THINLOCKS_POLICY_ADAPTIVEPOLICYENGINE_H
