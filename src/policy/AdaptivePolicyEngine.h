//===- policy/AdaptivePolicyEngine.h - Profiler->policy loop ---*- C++ -*-===//
///
/// \file
/// The online policy engine that closes the loop between the hot-lock
/// profiler (obs/LockEventCollector) and the lock slow paths (DESIGN.md
/// §13).  A tick — driven by whoever owns the sampling cadence: the soak
/// harness's ticker, a bench driver, a VM housekeeping thread — drains
/// the collector, diffs the cumulative per-object/per-class aggregates
/// against the previous tick's baselines, classifies each active object,
/// and publishes LockPolicy decisions into a PolicyStore:
///
///   fast-release contention  -> SpinClass::Deep   (spin longer, win the
///                                                  word without parking)
///   convoy-prone contention  -> SpinClass::ParkEarly (stop burning the
///                                                  owner's CPU quantum)
///   inflate/deflate thrash   -> KeepFat + EagerInflate (restore the
///                                                  paper's permanence
///                                                  selectively)
///   cold inflated objects    -> speculative deflation via the FatLock
///                                                  retirement machinery
///
/// Decisions are dwell-gated in both directions (hysteresis): a
/// classification must hold for PromoteDwellTicks consecutive ticks
/// before it is published and DemoteDwellTicks before an active object's
/// decision is weakened, and a cold object's decision is only expired
/// after ColdTicks idle ticks — so churn at the classification boundary
/// cannot make the published table oscillate.
///
/// Threading: tick() serializes itself (concurrent callers queue on an
/// internal mutex); PolicyStore reads stay wait-free and never touch
/// that mutex.  The engine is the store's single writer.
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

#include "policy/PolicyStore.h"
#include "support/Mutex.h"

#include <cstdint>
#include <unordered_map>

namespace thinlocks {

class MonitorTable;
class ThreadContext;

namespace obs {
class LockEventCollector;
} // namespace obs

namespace policy {

/// Engine settings; the thresholds and dwell counts are constants.
struct PolicyConfig {
  /// Retire cold objects' quiescent fat locks.  OFF by default: see the
  /// file comment for the object-lifetime contract this asserts.
  bool SpeculativeDeflation = false;
};

/// The engine's decision ledger (mutually consistent snapshot via
/// counters()).
struct PolicyCounters {
  uint64_t Ticks = 0;
  /// Decision publishes that introduced or strengthened a policy.
  uint64_t Promotions = 0;
  /// Dwell-gated downgrades of still-active objects.
  uint64_t Demotions = 0;
  /// Cold-object decision expiries.
  uint64_t Expiries = 0;
  /// Cumulative publishes carrying each lever.
  uint64_t DeepSpinDecisions = 0;
  uint64_t ParkEarlyDecisions = 0;
  uint64_t KeepFatDecisions = 0;
  /// Class-level decision publishes / erases.
  uint64_t ClassPromotions = 0;
  uint64_t ClassDemotions = 0;
  /// Cold fat locks retired by the engine's scan.
  uint64_t SpeculativeDeflations = 0;
  /// Candidates examined by the scan (including unsuccessful).
  uint64_t DeflationScans = 0;
  /// publish() refusals on a full probe window (retried next tick).
  uint64_t PublishFailures = 0;
  /// Objects currently tracked (baseline + dwell state held).
  uint64_t ObjectsTracked = 0;
};

class AdaptivePolicyEngine {
public:
  /// \param Collector the profiler to consume (tick() drains it).
  /// \param Monitors the table whose fat locks the deflation scan may
  /// retire (and whose retirement ledger it feeds).
  AdaptivePolicyEngine(obs::LockEventCollector &Collector,
                       MonitorTable &Monitors,
                       PolicyConfig Config = PolicyConfig());

  /// Dwell counts (ticks, not time, so a bench that ticks per burst and
  /// the soak's 10ms cadence share them).  Consecutive ticks a non-default classification must hold before it
  /// is published.
  static constexpr unsigned PromoteDwellTicks = 3;
  /// Consecutive ticks a *weaker* classification must hold before an
  /// active object's published decision is downgraded.
  static constexpr unsigned DemoteDwellTicks = 6;
  /// Idle ticks after which a tracked object is cold: its decision is
  /// expired and it becomes a deflation candidate.  (Cold expiry uses
  /// this as its dwell; tracking state is dropped after 2x.)
  static constexpr unsigned ColdTicks = 8;
  /// Only classes with at least this many distinct profiled objects get
  /// a class-level decision (below it, per-object entries suffice).
  static constexpr uint64_t MinClassObjects = 4;

  AdaptivePolicyEngine(const AdaptivePolicyEngine &) = delete;
  AdaptivePolicyEngine &operator=(const AdaptivePolicyEngine &) = delete;

  /// The store slow paths consult (wire via
  /// ThinLockImpl::setPolicyStore).  Wait-free reads; valid for the
  /// engine's lifetime.
  const PolicyStore &policyStore() const { return Store; }

  /// One sampling step: drain the profiler, reclassify, publish.  Safe
  /// from any thread; concurrent calls serialize.  \p Recorder, when
  /// non-null and tracing is enabled, receives PolicyDecision (and
  /// deflation's Deflate) events into its ring so decisions land in the
  /// same timeline as the contention they answer.
  void tick(const ThreadContext *Recorder = nullptr) TL_EXCLUDES(Mu);

  PolicyCounters counters() const TL_EXCLUDES(Mu);

private:
  /// Per-key dwell state and cumulative baselines as of the last tick.
  struct Tracked {
    uint32_t ClassIndex = 0;
    uint64_t BlockedNanos = 0;
    uint64_t ContendedAcquires = 0;
    uint64_t Inflations = 0;
    uint64_t Deflations = 0;
    uint64_t Parks = 0;
    LockPolicy Published;
    LockPolicy Desired;
    unsigned DesiredStreak = 0;
    unsigned IdleTicks = 0;
    /// The last tick (Counters.Ticks) whose profiler table listed this
    /// key; keys it missed take an idle step.
    uint64_t SeenInTick = 0;
    bool Seeded = false;
  };

  /// One tick's activity deltas for a key (object or class).
  struct Deltas {
    uint64_t Blocked = 0;
    uint64_t Contended = 0;
    uint64_t Inflations = 0;
    uint64_t Deflations = 0;
    uint64_t Parks = 0;
    bool active() const {
      return (Blocked | Contended | Inflations | Deflations | Parks) != 0;
    }
  };

  LockPolicy classify(const Deltas &D) const;
  /// One key's dwell/publish step for this tick.  \p Key is the object
  /// address (or class index when \p IsClass).
  void stepKey(Tracked &T, const Deltas &D, uint64_t Key, bool IsClass,
               const ThreadContext *Recorder) TL_REQUIRES(Mu);
  /// Advances \p T's dwell state toward \p Desired; \returns true when
  /// the published decision must change to \p T.Desired now.  \p Cold
  /// marks a cold expiry, whose ColdTicks wait already served as dwell.
  bool advanceDwell(Tracked &T, LockPolicy Desired, bool Cold);
  void recordDecision(const ThreadContext *Recorder, uint64_t ObjectAddr,
                      uint32_t ClassIndex, LockPolicy Policy,
                      bool IsClass) const;
  void bumpLeverCounters(LockPolicy Policy) TL_REQUIRES(Mu);
  void deflateScan(const ThreadContext *Recorder) TL_REQUIRES(Mu);

  obs::LockEventCollector &Collector;
  MonitorTable &Monitors;
  const PolicyConfig Config;
  PolicyStore Store;

  mutable Mutex Mu;
  std::unordered_map<uint64_t, Tracked> Objects TL_GUARDED_BY(Mu);
  std::unordered_map<uint32_t, Tracked> Classes TL_GUARDED_BY(Mu);
  PolicyCounters Counters TL_GUARDED_BY(Mu);
};

} // namespace policy
} // namespace thinlocks

#endif // THINLOCKS_POLICY_ADAPTIVEPOLICYENGINE_H
