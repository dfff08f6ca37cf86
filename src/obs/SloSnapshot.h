//===- obs/SloSnapshot.h - Service-level-objective snapshot ----*- C++ -*-===//
///
/// \file
/// The reporting end of the sustained-load soak harness (DESIGN.md §12):
/// a point-in-time summary of how the locking substrate served an
/// open-loop session workload — acquire-latency, whole-session and
/// dispatch-delay quantiles (p50/p99/p999 out of support/Histogram.h's
/// LatencyHistogram), time-to-wake quantiles folded from drained Wake
/// events, throughput, and the admission-control ledger (shed/deferred/
/// degraded counts, typed-error totals, degradation-level residency).
///
/// Everything renders to a single JSON object (writeJson), which
/// bench_soak nests into BENCH_soak.json, and to a Chrome trace of the
/// *worst* sessions (worstSessionsTraceJson): the slowest tail as
/// "session" spans overlaid on the lock events recorded inside their
/// windows — "why was p999 slow" becomes one chrome://tracing load.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_OBS_SLOSNAPSHOT_H
#define THINLOCKS_OBS_SLOSNAPSHOT_H

#include "obs/LockEvents.h"
#include "support/Histogram.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace thinlocks {

class ClassRegistry;
class JsonWriter;

namespace obs {

/// The latency quantiles the SLO tracks, in nanoseconds.
struct SloQuantiles {
  uint64_t Count = 0;
  uint64_t P50 = 0;
  uint64_t P99 = 0;
  uint64_t P999 = 0;
  uint64_t Max = 0;
  uint64_t Mean = 0;

  /// Reads the tracked quantiles out of \p Hist.
  static SloQuantiles of(const LatencyHistogram &Hist);

  /// \returns true when the quantiles are mutually consistent
  /// (p50 <= p99 <= p999 <= max) — the self-check every soak run
  /// asserts before publishing numbers.
  bool monotone() const { return P50 <= P99 && P99 <= P999 && P999 <= Max; }
};

/// One completed (or shed) session's identity and window, retained so
/// the worst tail can be rendered as trace spans.
struct SessionSpanInfo {
  uint64_t SessionId = 0;
  uint32_t WorkerTid = 0;     ///< Worker thread index (trace lane).
  uint64_t ArrivalNanos = 0;  ///< Open-loop arrival stamp.
  uint64_t StartNanos = 0;    ///< Session start (after dispatch).
  uint64_t EndNanos = 0;
  uint64_t MaxAcquireNanos = 0;
  bool Heavy = false;
  bool Degraded = false;
};

/// A coherent end-of-run SLO summary.
struct SloSnapshot {
  /// Registry name of the protocol that served the run ("ThinLock",
  /// "Fissile", ...); every published artifact carries the label so
  /// cross-protocol soaks stay attributable.
  std::string Protocol = "ThinLock";
  double DurationSeconds = 0;

  SloQuantiles Acquire; ///< Per-acquisition latency (lock() wall time).
  SloQuantiles Session; ///< Arrival-to-completion (includes queueing).
  /// Arrival-to-start: the part of Session before the session runs
  /// (the worker's wake-up past the instant, or time queued).
  SloQuantiles Dispatch;
  SloQuantiles Wake;    ///< Unpark-to-resume, from drained Wake events.

  /// Offered load accounting.  Offered == Completed + Shed always holds
  /// at the end of a run (deferred sessions either ran or were shed at
  /// shutdown); bench_soak fails if it does not.
  uint64_t SessionsOffered = 0;
  uint64_t SessionsCompleted = 0;
  uint64_t SessionsShed = 0;
  uint64_t SessionsDeferred = 0;  ///< Deferred at least once (may complete).
  uint64_t SessionsDegraded = 0;  ///< Ran with inflation-heavy ops elided.
  uint64_t RequestsCompleted = 0;

  double SessionsPerSecond = 0;
  double RequestsPerSecond = 0;
  /// Shed sessions as a fraction of offered sessions.
  double ShedRate = 0;

  /// Typed-error totals over the run (the admission signals).
  uint64_t MonitorExhaustionEvents = 0;
  uint64_t RegistryExhaustionEvents = 0;
  uint64_t EmergencyInflations = 0;

  /// Degradation-ladder residency: controller ticks spent at each level
  /// (Normal, Shed, DeferInflation, EmergencyOnly) plus transition count.
  std::array<uint64_t, 4> TicksAtLevel{};
  uint64_t LevelTransitions = 0;
  /// The level when the run ended (0 == Normal; recovery proof).
  unsigned FinalLevel = 0;

  /// Writes the snapshot as one JSON object, a key per line.
  void writeJson(JsonWriter &W) const;
  /// The same object as a standalone document.
  std::string toJson() const;
};

/// Renders the \p Worst sessions as Chrome "session" spans overlaid on
/// the subset of \p Events that falls inside any worst-session window
/// (so the artifact stays small no matter how long the run was).  Spans
/// start at the session's *arrival*, making queueing delay visible.
/// A non-empty \p Protocol is stamped onto every session span as a
/// "protocol" arg so traces from cross-protocol soaks stay attributable.
std::string worstSessionsTraceJson(const std::vector<LockEvent> &Events,
                                   const std::vector<SessionSpanInfo> &Worst,
                                   const ClassRegistry *Classes,
                                   const std::string &Protocol = {});

} // namespace obs
} // namespace thinlocks

#endif // THINLOCKS_OBS_SLOSNAPSHOT_H
