//===- load/AdmissionController.h - Overload admission control -*- C++ -*-===//
///
/// \file
/// Admission control for sustained-load operation (DESIGN.md §12): a
/// controller that watches the locking substrate's finite resources —
/// MonitorTable and ThreadRegistry occupancy plus the typed exhaustion
/// signals PR 1 introduced (AttachError::Exhausted, allocate()==0,
/// emergency inflations) — and walks a degradation ladder instead of
/// letting the process fall off a cliff:
///
///   Normal -> Shed -> DeferInflation -> EmergencyOnly
///
/// Escalation is *immediate* (a single typed-error delta in a tick is
/// proof of exhaustion right now); recovery is *hysteretic* (one step
/// per tick, and only after RecoveryDwellTicks consecutively quiet
/// ticks), so the ladder cannot flap around the high-water mark.
///
/// A deliberate asymmetry in the signals: MonitorTable occupancy is
/// monotone — indices are never reused, even after deflation — so
/// "occupancy dropped below low water" can never happen for monitors.
/// Recovery is therefore keyed on the *rates* quieting (no fresh typed
/// errors, registry occupancy back under low water), never on monitor
/// occupancy receding.
///
/// The controller is decoupled from the subsystems through the
/// PressureSignals snapshot struct, so unit tests drive the ladder with
/// synthetic pressure and the soak harness fills it from the real
/// tables.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_LOAD_ADMISSIONCONTROLLER_H
#define THINLOCKS_LOAD_ADMISSIONCONTROLLER_H

#include "support/Mutex.h"

#include <array>
#include <cstdint>

namespace thinlocks {
namespace load {

/// The degradation ladder, mildest to harshest.
enum class DegradationLevel : uint8_t {
  Normal = 0,       ///< Admit everything.
  Shed = 1,         ///< Reject a fraction of arrivals outright.
  DeferInflation = 2, ///< Additionally park inflation-heavy sessions
                      ///< for retry once pressure lifts.
  EmergencyOnly = 3,  ///< Monitor space is gone (emergency monitor in
                      ///< use): only degraded sessions — no operation
                      ///< that can allocate a monitor — are admitted.
};

constexpr unsigned NumDegradationLevels = 4;

/// \returns the stable display name of \p Level.
const char *degradationLevelName(DegradationLevel Level);

/// What to do with one arriving session.
enum class AdmissionDecision : uint8_t {
  Admit,         ///< Run normally.
  AdmitDegraded, ///< Run with inflation-heavy operations elided.
  Defer,         ///< Queue for retry when the ladder de-escalates.
  Shed,          ///< Reject; the caller counts it against the SLO.
};

/// Ladder settings.  Defaults fit the 1-CPU CI soak profile.
struct AdmissionLimits {
  /// Consecutive quiet ticks required per one-step de-escalation.
  uint32_t RecoveryDwellTicks = 5;
  /// At Shed and above, every ShedOneIn-th arrival is rejected.
  uint32_t ShedOneIn = 3;
};

/// Point-in-time pressure snapshot.  Event counters are *cumulative*
/// (monotone); the controller differentiates them across ticks.
struct PressureSignals {
  double MonitorOccupancy = 0;
  double RegistryOccupancy = 0;
  uint64_t MonitorExhaustionEvents = 0;
  uint64_t RegistryExhaustionEvents = 0;
  uint64_t EmergencyInflations = 0;
};

/// Thread-safe ladder state + per-decision counters.
class AdmissionController {
public:
  explicit AdmissionController(AdmissionLimits Limits = AdmissionLimits());

  AdmissionController(const AdmissionController &) = delete;
  AdmissionController &operator=(const AdmissionController &) = delete;

  /// Feeds one pressure sample and updates the ladder.  Called on the
  /// harness's tick cadence (not per arrival).  \returns the level in
  /// force after the tick.
  DegradationLevel tick(const PressureSignals &Now) TL_EXCLUDES(Mu);

  /// Decides one arriving session.  \p InflationHeavy marks sessions
  /// whose workload allocates monitors (wait/notify, inflation hints,
  /// ephemeral thread attaches) — the ones the upper rungs defer or
  /// refuse first.
  AdmissionDecision admit(bool InflationHeavy) TL_EXCLUDES(Mu);

  DegradationLevel level() const TL_EXCLUDES(Mu);

  /// Monotone ledger of everything the controller did.
  struct Counters {
    uint64_t Admitted = 0;
    uint64_t AdmittedDegraded = 0;
    uint64_t Deferred = 0;
    uint64_t Shed = 0;
    uint64_t Escalations = 0;
    uint64_t DeEscalations = 0;
    uint64_t Ticks = 0;
    std::array<uint64_t, NumDegradationLevels> TicksAtLevel{};
  };
  Counters counters() const TL_EXCLUDES(Mu);

private:
  void moveTo(DegradationLevel Target) TL_REQUIRES(Mu);

  const AdmissionLimits Limits;
  mutable Mutex Mu;
  DegradationLevel Level TL_GUARDED_BY(Mu) = DegradationLevel::Normal;
  uint32_t QuietTicks TL_GUARDED_BY(Mu) = 0;
  uint64_t ArrivalSerial TL_GUARDED_BY(Mu) = 0;
  PressureSignals Last TL_GUARDED_BY(Mu);
  bool HaveLast TL_GUARDED_BY(Mu) = false;
  Counters Ledger TL_GUARDED_BY(Mu);
};

} // namespace load
} // namespace thinlocks

#endif // THINLOCKS_LOAD_ADMISSIONCONTROLLER_H
