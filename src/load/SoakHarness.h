//===- load/SoakHarness.h - Open-loop sustained-load harness ---*- C++ -*-===//
///
/// \file
/// The sustained-load soak harness (DESIGN.md §12): an *open-loop*
/// session simulator over the thin-lock substrate.  Sessions arrive on a
/// Poisson process at a configured rate, irrespective of whether the
/// system is keeping up — the sizing knob is arrival rate, not thread
/// count, because a closed loop (N threads in lockstep) self-throttles
/// under overload and hides exactly the queueing collapse an SLO exists
/// to measure (coordinated omission).  The gap between the scheduled
/// arrival and completion *is* the session latency, queueing included.
///
/// The workers keep the arrival clock themselves; no generator thread
/// hands arrivals over.  An idle worker takes the oldest queued arrival
/// or else claims the next one of the seeded schedule, sleeps to its
/// instant on its own timer (1 ns timer slack on Linux), and offers it
/// to admission control and serves it itself, so a session costs one
/// wake-up.  Arrivals already due when drawn form the queued backlog.
/// When every worker is busy at an instant, that arrival is admitted
/// when the first worker frees up.  The time from instant to start is
/// reported as the dispatch delay.
///
/// Load-shedding: an AdmissionController ticks on a fixed cadence,
/// sampling MonitorTable/ThreadRegistry occupancy and the typed
/// exhaustion counters, and every arrival is admitted / degraded /
/// deferred / shed per the current degradation-ladder rung.  Deferred
/// (inflation-heavy) sessions are retried when the ladder de-escalates
/// and shed at shutdown if pressure never lifted, so the accounting
/// identity `offered == completed + shed` holds at the end of every run.
///
/// Chaos mode layers the repo's existing failpoints under the sustained
/// load on a seeded, reproducible schedule of arm/disarm phases
/// (registry exhaustion, monitor-table exhaustion, spurious park wakeups,
/// widened inflation-race and timeout-race windows).  The phases end
/// before the run does, so a chaos run also proves *recovery*: the
/// ladder must walk back to Normal and late arrivals must be admitted.
///
/// Every run records per-worker acquire/session/dispatch
/// LatencyHistograms and drains the obs event rings; the result is an
/// SloSnapshot plus a Chrome trace of the worst sessions.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_LOAD_SOAKHARNESS_H
#define THINLOCKS_LOAD_SOAKHARNESS_H

#include "load/AdmissionController.h"
#include "obs/SloSnapshot.h"
#include "policy/AdaptivePolicyEngine.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace thinlocks {
namespace load {

/// One seeded chaos phase: \p Point armed with \p Mode/\p Arg over
/// [StartFraction, EndFraction) of the run.
struct ChaosPhase {
  double StartFraction = 0;
  double EndFraction = 0;
  unsigned PointId = 0; ///< failpoint::Id as unsigned.
  unsigned Mode = 0;    ///< failpoint::Mode as unsigned.
  uint64_t Arg = 0;
};

/// The seed of the chaos schedule a chaos run arms.
constexpr uint64_t ChaosSeed = 7;

/// Harness configuration.  Defaults are the 1-CPU CI smoke profile;
/// real soaks raise DurationSeconds and ArrivalsPerSecond.
struct SoakConfig {
  /// Registry name of the protocol under load ("ThinLock", "JDK111",
  /// "IBM112", "EagerMonitor", "Fissile"; see core/ProtocolRegistry.h).
  /// Unknown names are a fatal configuration error.
  std::string Protocol = "ThinLock";
  double ArrivalsPerSecond = 300;
  double DurationSeconds = 3;
  unsigned Workers = 3;
  uint64_t Seed = 1;
  /// Fraction of arrivals that are inflation-heavy sessions.
  double HeavyFraction = 0.25;
  size_t HotObjects = 64;
  double ZipfTheta = 0.8;
  /// 0 = library default capacity.  Chaos runs shrink these so genuine
  /// exhaustion is reachable without 8M allocations.
  uint32_t MonitorCapacity = 0;
  uint16_t RegistryCapacity = 0;
  /// Retire monitors at quiescence so long soaks also exercise the
  /// deflation / stale-fat-word machinery.
  bool DeflateWhenQuiescent = true;
  /// Arm the seeded failpoint schedule (requires a failpoints build).
  bool Chaos = false;
  /// Run an AdaptivePolicyEngine off the controller's tick cadence: it
  /// tracks idle objects through the profiler and, with
  /// Policy.SpeculativeDeflation, retires cold objects' quiescent fat
  /// locks.  Thin-lock only: the engine deflates through ThinLock's
  /// MonitorTable, so enabling it with any other Protocol is a fatal
  /// configuration error (callers pre-validate; see bench_soak).
  bool AdaptivePolicy = false;
  /// Engine settings when AdaptivePolicy is on.  The harness owns its
  /// heap and every session object outlives the run, so enabling
  /// Policy.SpeculativeDeflation here is safe.
  policy::PolicyConfig Policy;
};

/// Everything a run produced.
struct SoakResult {
  obs::SloSnapshot Slo;
  AdmissionController::Counters Admission;
  /// (nanos, new level) at every ladder transition, in order.
  std::vector<std::pair<uint64_t, DegradationLevel>> LevelTimeline;
  std::vector<obs::SessionSpanInfo> WorstSessions;
  /// Chrome trace of the worst sessions over their lock events.
  std::string WorstTraceJson;
  /// Arrivals shed because the bounded queue was full.
  uint64_t QueueOverflowShed = 0;
  /// Deferred sessions shed at shutdown (pressure never lifted).
  uint64_t ShutdownShed = 0;
  /// Sessions admitted after the last chaos phase ended (recovery
  /// proof; == SessionsOffered admissions when Chaos is off).
  uint64_t AdmitsAfterChaos = 0;
  /// Heavy sessions that fell back to the worker identity on a typed
  /// AttachError.
  uint64_t AttachFallbacks = 0;
  uint64_t EventsDropped = 0;
  /// Chaos phases actually armed (0 when Chaos off or not compiled in).
  uint64_t ChaosPhasesRun = 0;
  /// Adaptive engine ledger (all zeros when AdaptivePolicy is off).
  policy::PolicyCounters Policy;
  /// Monitors retired by deflation over the run (owner-path quiescent
  /// retirement plus the engine's speculative scan).  Zero for
  /// protocols without a MonitorTable.
  uint64_t MonitorRetirements = 0;
};

/// \returns the deterministic chaos schedule for \p Seed (exposed for
/// tests; the same seed always yields the same phases).
std::vector<ChaosPhase> buildChaosSchedule(uint64_t Seed);

/// Runs one soak to completion and \returns its result.  Owns every
/// subsystem it drives (registry, monitor table, heap, lock manager,
/// collector); the caller provides only configuration.
SoakResult runSoak(const SoakConfig &Config);

} // namespace load
} // namespace thinlocks

#endif // THINLOCKS_LOAD_SOAKHARNESS_H
