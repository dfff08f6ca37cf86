//===- load/AdmissionController.cpp - Overload admission control ----------===//

#include "load/AdmissionController.h"

using namespace thinlocks;
using namespace thinlocks::load;

/// Occupancy (fraction of capacity) at or above which a tick escalates
/// even without a typed error — the early-warning rung.
constexpr double HighWater = 0.85;
/// Registry occupancy must be back under this before recovery counts a
/// tick as quiet.  (Monitor occupancy is monotone and deliberately
/// excluded; see the file comment in AdmissionController.h.)
constexpr double LowWater = 0.70;

const char *load::degradationLevelName(DegradationLevel Level) {
  switch (Level) {
  case DegradationLevel::Normal:
    return "normal";
  case DegradationLevel::Shed:
    return "shed";
  case DegradationLevel::DeferInflation:
    return "defer-inflation";
  case DegradationLevel::EmergencyOnly:
    return "emergency-only";
  }
  return "?";
}

AdmissionController::AdmissionController(AdmissionLimits Limits)
    : Limits(Limits) {}

void AdmissionController::moveTo(DegradationLevel Target) {
  if (Target == Level)
    return;
  if (static_cast<uint8_t>(Target) > static_cast<uint8_t>(Level))
    ++Ledger.Escalations;
  else
    ++Ledger.DeEscalations;
  Level = Target;
  QuietTicks = 0;
}

DegradationLevel AdmissionController::tick(const PressureSignals &Now) {
  LockGuard Guard(Mu);
  ++Ledger.Ticks;
  ++Ledger.TicksAtLevel[static_cast<uint8_t>(Level)];

  // Typed-error deltas since the previous tick.  The first tick has no
  // baseline; treat the counters as the baseline and report quiet.
  uint64_t MonitorDelta = 0, RegistryDelta = 0, EmergencyDelta = 0;
  if (HaveLast) {
    MonitorDelta = Now.MonitorExhaustionEvents - Last.MonitorExhaustionEvents;
    RegistryDelta =
        Now.RegistryExhaustionEvents - Last.RegistryExhaustionEvents;
    EmergencyDelta = Now.EmergencyInflations - Last.EmergencyInflations;
  }
  Last = Now;
  HaveLast = true;

  // Escalation: immediate, and sized to the evidence.  An emergency
  // inflation proves monitor space is *gone* (allocation already failed
  // and the shared emergency monitor is in use) — jump straight to the
  // top rung.  A monitor-table exhaustion event without an emergency
  // inflation yet means allocations are failing: stop creating monitors
  // (DeferInflation).  Registry exhaustion or high occupancy are the
  // early rungs.
  DegradationLevel Floor = DegradationLevel::Normal;
  if (EmergencyDelta > 0)
    Floor = DegradationLevel::EmergencyOnly;
  else if (MonitorDelta > 0)
    Floor = DegradationLevel::DeferInflation;
  else if (RegistryDelta > 0)
    Floor = DegradationLevel::Shed;
  else if (Now.RegistryOccupancy >= HighWater ||
           Now.MonitorOccupancy >= HighWater)
    Floor = DegradationLevel::Shed;

  if (static_cast<uint8_t>(Floor) > static_cast<uint8_t>(Level)) {
    moveTo(Floor);
    return Level;
  }

  // Recovery: only when this tick was quiet on every reactive signal —
  // no typed-error deltas and registry occupancy back under low water.
  // Monitor occupancy is monotone (indices never reused), so it is
  // deliberately not consulted here: after real exhaustion it reads
  // ~1.0 forever, and waiting for it to recede would latch the ladder.
  bool Quiet = MonitorDelta == 0 && RegistryDelta == 0 &&
               EmergencyDelta == 0 &&
               Now.RegistryOccupancy < LowWater;
  if (!Quiet) {
    QuietTicks = 0;
    return Level;
  }
  if (Level == DegradationLevel::Normal)
    return Level;
  if (++QuietTicks >= Limits.RecoveryDwellTicks)
    moveTo(static_cast<DegradationLevel>(static_cast<uint8_t>(Level) - 1));
  return Level;
}

AdmissionDecision AdmissionController::admit(bool InflationHeavy) {
  LockGuard Guard(Mu);
  uint64_t Serial = ++ArrivalSerial;
  // Deterministic fractional shedding: every ShedOneIn-th arrival, so a
  // fixed arrival schedule always sheds the same sessions.
  bool ShedTurn =
      Limits.ShedOneIn != 0 && Serial % Limits.ShedOneIn == 0;

  AdmissionDecision Decision = AdmissionDecision::Admit;
  switch (Level) {
  case DegradationLevel::Normal:
    Decision = AdmissionDecision::Admit;
    break;
  case DegradationLevel::Shed:
    Decision = ShedTurn ? AdmissionDecision::Shed : AdmissionDecision::Admit;
    break;
  case DegradationLevel::DeferInflation:
    if (InflationHeavy)
      Decision = AdmissionDecision::Defer;
    else
      Decision =
          ShedTurn ? AdmissionDecision::Shed : AdmissionDecision::Admit;
    break;
  case DegradationLevel::EmergencyOnly:
    // No session may allocate a monitor: heavy work is refused outright
    // (its deferred form would still inflate on retry under pressure),
    // light work runs degraded.
    if (InflationHeavy)
      Decision = AdmissionDecision::Shed;
    else
      Decision = ShedTurn ? AdmissionDecision::Shed
                          : AdmissionDecision::AdmitDegraded;
    break;
  }

  switch (Decision) {
  case AdmissionDecision::Admit:
    ++Ledger.Admitted;
    break;
  case AdmissionDecision::AdmitDegraded:
    ++Ledger.AdmittedDegraded;
    break;
  case AdmissionDecision::Defer:
    ++Ledger.Deferred;
    break;
  case AdmissionDecision::Shed:
    ++Ledger.Shed;
    break;
  }
  return Decision;
}

DegradationLevel AdmissionController::level() const {
  LockGuard Guard(Mu);
  return Level;
}

AdmissionController::Counters AdmissionController::counters() const {
  LockGuard Guard(Mu);
  return Ledger;
}
