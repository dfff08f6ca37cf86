//===- load/SoakHarness.cpp - Open-loop sustained-load harness ------------===//

#include "load/SoakHarness.h"

#include "core/ProtocolRegistry.h"
#include "heap/Heap.h"
#include "load/SessionWorkload.h"
#include "obs/LockEventCollector.h"
#include "support/FailPoint.h"
#include "support/Fatal.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <optional>
#include <thread>

#ifdef __linux__
#include <sys/prctl.h>
#endif

using namespace thinlocks;
using namespace thinlocks::load;

std::vector<ChaosPhase> load::buildChaosSchedule(uint64_t Seed) {
  // A fixed phase template with seeded window jitter: the same seed
  // always yields the same schedule (the reproducibility contract), a
  // different seed shifts which failure overlaps which.  Every phase
  // ends by 80% of the run so the tail proves recovery.
  SplitMix64 Rng(Seed);
  auto Jittered = [&Rng](double Base) {
    double Value = Base + (Rng.nextDouble() - 0.5) * 0.06;
    return std::min(0.80, std::max(0.05, Value));
  };
  auto Phase = [&](double Start, double End, failpoint::Id Point,
                   failpoint::Mode Mode, uint64_t Arg) {
    ChaosPhase P;
    P.StartFraction = Jittered(Start);
    P.EndFraction = std::max(Jittered(End), P.StartFraction + 0.02);
    P.PointId = static_cast<unsigned>(Point);
    P.Mode = static_cast<unsigned>(Mode);
    P.Arg = Arg;
    return P;
  };
  return {
      Phase(0.10, 0.28, failpoint::Id::ThreadRegistryExhausted,
            failpoint::Mode::Always, 0),
      Phase(0.30, 0.50, failpoint::Id::MonitorTableExhausted,
            failpoint::Mode::Always, 0),
      Phase(0.20, 0.45, failpoint::Id::ThinLockInflateRace,
            failpoint::Mode::OneIn, 6),
      Phase(0.35, 0.55, failpoint::Id::ParkSpurious,
            failpoint::Mode::OneIn, 4),
      Phase(0.40, 0.60, failpoint::Id::ParkingLotTimeoutRace,
            failpoint::Mode::OneIn, 4),
  };
}

namespace {

/// Bounded arrival queue; overflow sheds (the backpressure of last
/// resort when even admission control lags the arrival process).
constexpr size_t QueueLimit = 512;
constexpr uint64_t TickNanos = 10'000'000; // 10ms controller cadence.
/// Worst-tail fraction exported as Chrome "session" spans.
constexpr double WorstFraction = 0.01;

/// One admitted-or-deferred arrival.
struct Arrival {
  uint64_t Id = 0;
  uint64_t ArrivalNanos = 0; ///< Open-loop (scheduled) arrival stamp.
  bool Heavy = false;
  bool Degraded = false;
};

/// Results a worker accumulates privately; merged after join.
struct WorkerState {
  LatencyHistogram Acquire;
  LatencyHistogram Session;
  LatencyHistogram Dispatch;
  std::vector<obs::SessionSpanInfo> Sessions;
  uint64_t Requests = 0;
  uint64_t Completed = 0;
  uint64_t DegradedRuns = 0;
  uint64_t AttachFallbacks = 0;
};

/// Builds the configured protocol (and its substrate) or dies loudly: a
/// typo'd protocol name is a configuration error, not a degraded run.
std::unique_ptr<ProtocolHandle> makeProtocol(const SoakConfig &Config,
                                             LockStats &Stats) {
  ProtocolConfig PC;
  PC.MonitorCapacity = Config.MonitorCapacity;
  PC.DeflateWhenQuiescent = Config.DeflateWhenQuiescent;
  PC.Stats = &Stats;
  std::unique_ptr<ProtocolHandle> Handle =
      createProtocol(Config.Protocol, PC);
  if (!Handle)
    fatalError("soak: unknown protocol '%s' (see core/ProtocolRegistry.h "
               "for the registered names)",
               Config.Protocol.c_str());
  return Handle;
}

class SoakRun {
public:
  explicit SoakRun(const SoakConfig &Config)
      : Config(Config),
        Registry(Config.RegistryCapacity != 0
                     ? Config.RegistryCapacity
                     : ThreadRegistry::MaxThreadIndex),
        Protocol(makeProtocol(Config, Stats)),
        Monitors(Protocol->monitorTable()),
        Workload(Protocol->sync(), TheHeap, Registry, Config.HotObjects,
                 Config.ZipfTheta),
        Collector(Registry), Schedule(Config.Seed) {
    if (Config.Chaos && failpoint::compiledIn())
      Chaos = buildChaosSchedule(ChaosSeed);
    ChaosArmed.assign(Chaos.size(), false);
    ChaosDone.assign(Chaos.size(), false);
    if (Config.AdaptivePolicy) {
      if (!Protocol->thinLocks() || !Monitors)
        fatalError("soak: AdaptivePolicy deflates thin-lock monitors; "
                   "protocol '%s' has none",
                   Protocol->name());
      Engine = std::make_unique<policy::AdaptivePolicyEngine>(
          Collector, *Monitors, Config.Policy);
    }
  }

  SoakResult run();

private:
  void workerLoop(unsigned Index);
  void tickerLoop();
  /// Draws arrivals in schedule order until one is not yet due or the
  /// schedule ends.
  void drawLocked() TL_REQUIRES(Mu);
  /// Offers \p A to admission control and \returns the decision.
  AdmissionDecision offerLocked(const Arrival &A) TL_REQUIRES(Mu);
  /// Routes one decided arrival: an admitted one is queued, or, when
  /// \p Claimed, marked for its claiming worker to serve (\returns true).
  bool dispatchLocked(Arrival &A, AdmissionDecision Decision, bool Claimed)
      TL_REQUIRES(Mu);
  void retryDeferredLocked() TL_REQUIRES(Mu);
  /// Arms/disarms chaos phases for run fraction \p Frac (ticker only).
  void updateChaos(double Frac);
  SoakResult finish(uint64_t RunNanos);

  const SoakConfig Config;
  ThreadRegistry Registry;
  LockStats Stats;
  /// Owns the protocol under load plus its substrate (type-erased).
  std::unique_ptr<ProtocolHandle> Protocol;
  /// Capability view into *Protocol; null when the protocol lacks the
  /// substrate.
  MonitorTable *Monitors = nullptr;
  Heap TheHeap;
  SessionWorkload Workload;
  obs::LockEventCollector Collector;
  AdmissionController Controller;
  /// Present only when Config.AdaptivePolicy; ticked by the ticker.
  std::unique_ptr<policy::AdaptivePolicyEngine> Engine;

  uint64_t T0 = 0;
  uint64_t DurationNanos = 0;
  /// Absolute time after which every chaos phase has ended (== T0 when
  /// chaos is off, so every admit counts as post-chaos).
  uint64_t ChaosOverNanos = 0;

  std::vector<ChaosPhase> Chaos;      // Ticker-only after construction.
  std::vector<bool> ChaosArmed;       // Ticker-only.
  std::vector<bool> ChaosDone;        // Ticker-only.
  uint64_t ChaosPhasesRun = 0;        // Ticker-only until join.

  mutable Mutex Mu;
  /// Idle workers wait here once the schedule is done (retries, drain).
  std::condition_variable_any QueueCv;
  /// run() waits here for the schedule's end.
  std::condition_variable_any ScheduleCv;
  /// The seeded arrival schedule, drawn by the workers in order: a gap,
  /// then the heavy flag, per arrival.
  SplitMix64 Schedule TL_GUARDED_BY(Mu);
  double ScheduleNanos TL_GUARDED_BY(Mu) = 0; ///< Last instant, from T0.
  uint64_t NextId TL_GUARDED_BY(Mu) = 1;
  /// The next arrival, drawn before its instant and not yet claimed.
  std::optional<Arrival> NextArrival TL_GUARDED_BY(Mu);
  /// Claimed arrivals not yet offered to admission control.
  unsigned Claims TL_GUARDED_BY(Mu) = 0;
  /// The schedule drew its first gap past DurationNanos.
  bool ScheduleDone TL_GUARDED_BY(Mu) = false;
  std::deque<Arrival> Queue TL_GUARDED_BY(Mu);
  std::vector<Arrival> Deferred TL_GUARDED_BY(Mu);
  bool ArrivalsDone TL_GUARDED_BY(Mu) = false;
  bool Draining TL_GUARDED_BY(Mu) = false;
  uint64_t Offered TL_GUARDED_BY(Mu) = 0;
  uint64_t ShedCount TL_GUARDED_BY(Mu) = 0;
  uint64_t DeferredOnce TL_GUARDED_BY(Mu) = 0;
  uint64_t QueueOverflow TL_GUARDED_BY(Mu) = 0;
  uint64_t ShutdownShed TL_GUARDED_BY(Mu) = 0;
  uint64_t AdmitsAfterChaos TL_GUARDED_BY(Mu) = 0;
  std::vector<std::pair<uint64_t, DegradationLevel>>
      Timeline TL_GUARDED_BY(Mu);

  mutable Mutex TickMu;
  std::condition_variable_any TickCv;
  bool StopTicker TL_GUARDED_BY(TickMu) = false;

  std::vector<WorkerState> Workers; // Worker I owns slot I until join.
};

bool SoakRun::dispatchLocked(Arrival &A, AdmissionDecision Decision,
                             bool Claimed) {
  uint64_t Now = monotonicNanos();
  switch (Decision) {
  case AdmissionDecision::Admit:
  case AdmissionDecision::AdmitDegraded:
    if (!Claimed && Queue.size() >= QueueLimit) {
      // Backpressure of last resort: admission control lagged the
      // arrival process; shed rather than queue without bound.
      ++QueueOverflow;
      ++ShedCount;
      return false;
    }
    A.Degraded = Decision == AdmissionDecision::AdmitDegraded;
    if (Now >= ChaosOverNanos)
      ++AdmitsAfterChaos;
    if (Claimed)
      return true;
    Queue.push_back(A);
    QueueCv.notify_one();
    return false;
  case AdmissionDecision::Defer:
    Deferred.push_back(A);
    return false;
  case AdmissionDecision::Shed:
    ++ShedCount;
    return false;
  }
  return false;
}

void SoakRun::retryDeferredLocked() {
  if (Deferred.empty())
    return;
  std::vector<Arrival> Retry;
  Retry.swap(Deferred);
  for (Arrival &A : Retry)
    dispatchLocked(A, Controller.admit(/*InflationHeavy=*/A.Heavy),
                   /*Claimed=*/false);
}

AdmissionDecision SoakRun::offerLocked(const Arrival &A) {
  ++Offered;
  AdmissionDecision Decision = Controller.admit(A.Heavy);
  if (Decision == AdmissionDecision::Defer)
    ++DeferredOnce;
  return Decision;
}

void SoakRun::drawLocked() {
  // Open loop: exponential inter-arrival gaps on the *scheduled* clock.
  // The schedule never waits for the system: arrivals already due when
  // drawn are admitted and queued at once, the backlog of a late
  // harness, which is exactly the overload an open loop must not hide.
  const double GapScale = 1e9 / Config.ArrivalsPerSecond;
  uint64_t Now = monotonicNanos();
  while (!NextArrival && !ScheduleDone) {
    ScheduleNanos += -std::log(1.0 - Schedule.nextDouble()) * GapScale;
    if (ScheduleNanos >= static_cast<double>(DurationNanos)) {
      ScheduleDone = true;
      if (Claims == 0)
        ScheduleCv.notify_all();
      return;
    }
    Arrival A;
    A.Id = NextId++;
    A.ArrivalNanos = T0 + static_cast<uint64_t>(ScheduleNanos);
    A.Heavy = Schedule.nextBool(Config.HeavyFraction);
    if (A.ArrivalNanos > Now)
      NextArrival = A;
    else
      dispatchLocked(A, offerLocked(A), /*Claimed=*/false);
  }
}

void SoakRun::workerLoop(unsigned Index) {
#ifdef __linux__
  // A claimed arrival starts on this thread's own timer; the default
  // 50 us timer slack would start it up to that long after its instant.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  ScopedThreadAttachment Attach(Registry,
                                "soak-worker-" + std::to_string(Index));
  WorkerState &W = Workers[Index];
  SplitMix64 Rng(Config.Seed ^ (0x9e3779b97f4a7c15ull * (Index + 1)));
  for (;;) {
    Arrival A;
    bool Claimed = false;
    {
      UniqueLock Guard(Mu);
      for (;;) {
        // Queued work first (backlog and deferred retries, oldest
        // first), then the next arrival of the schedule.
        if (!Queue.empty()) {
          A = Queue.front();
          Queue.pop_front();
          break;
        }
        if (!NextArrival && !ScheduleDone) {
          drawLocked();
          continue;
        }
        if (NextArrival) {
          A = *NextArrival;
          NextArrival.reset();
          ++Claims;
          Claimed = true;
          break;
        }
        if (Draining)
          return;
        QueueCv.wait(Guard);
      }
    }
    if (Claimed) {
      // The claimer keeps the arrival clock: its own timer is the one
      // wake-up between the instant and the session.
      for (uint64_t Now = monotonicNanos(); Now < A.ArrivalNanos;
           Now = monotonicNanos())
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(A.ArrivalNanos - Now));
      LockGuard Guard(Mu);
      bool Serve = dispatchLocked(A, offerLocked(A), /*Claimed=*/true);
      if (--Claims == 0 && ScheduleDone)
        ScheduleCv.notify_all();
      if (!Serve)
        continue;
    }
    uint64_t Start = monotonicNanos();
    if (Start < A.ArrivalNanos)
      fatalError("soak: session %llu started %llu ns before its instant",
                 static_cast<unsigned long long>(A.Id),
                 static_cast<unsigned long long>(A.ArrivalNanos - Start));
    W.Dispatch.record(Start - A.ArrivalNanos);
    SessionOutcome Outcome = Workload.run(Attach.context(), Rng, A.Heavy,
                                          A.Degraded, W.Acquire);
    uint64_t End = monotonicNanos();
    W.Session.record(End - A.ArrivalNanos);
    obs::SessionSpanInfo Span;
    Span.SessionId = A.Id;
    Span.WorkerTid = Attach.context().index();
    Span.ArrivalNanos = A.ArrivalNanos;
    Span.StartNanos = Start;
    Span.EndNanos = End;
    Span.MaxAcquireNanos = Outcome.MaxAcquireNanos;
    Span.Heavy = A.Heavy;
    Span.Degraded = A.Degraded;
    W.Sessions.push_back(Span);
    W.Requests += Outcome.Requests;
    ++W.Completed;
    if (A.Degraded)
      ++W.DegradedRuns;
    if (Outcome.AttachFallback)
      ++W.AttachFallbacks;
  }
}

void SoakRun::updateChaos(double Frac) {
  for (size_t I = 0; I < Chaos.size(); ++I) {
    const ChaosPhase &P = Chaos[I];
    if (!ChaosArmed[I] && !ChaosDone[I] && Frac >= P.StartFraction &&
        Frac < P.EndFraction) {
      failpoint::arm(static_cast<failpoint::Id>(P.PointId),
                     static_cast<failpoint::Mode>(P.Mode), P.Arg);
      ChaosArmed[I] = true;
      ++ChaosPhasesRun;
    } else if (ChaosArmed[I] && Frac >= P.EndFraction) {
      failpoint::disarm(static_cast<failpoint::Id>(P.PointId));
      ChaosArmed[I] = false;
      ChaosDone[I] = true;
    }
  }
}

void SoakRun::tickerLoop() {
  // The adaptive engine records its scan's deflations into the ticker's
  // event ring so they land in the same timeline as the contention they
  // follow; attach only when the engine exists, so non-adaptive runs
  // keep their registry occupancy (some chaos configs size it tightly).
  std::unique_ptr<ScopedThreadAttachment> Attach;
  if (Engine)
    Attach = std::make_unique<ScopedThreadAttachment>(Registry,
                                                      "soak-ticker");
  for (;;) {
    {
      UniqueLock Guard(TickMu);
      if (!StopTicker)
        TickCv.wait_for(Guard,
                        std::chrono::nanoseconds(TickNanos));
      if (StopTicker)
        break;
    }
    uint64_t Now = monotonicNanos();
    bool Done;
    {
      LockGuard Guard(Mu);
      Done = ArrivalsDone;
    }
    double Frac =
        Done ? 1.0
             : std::min(1.0, static_cast<double>(Now - T0) /
                                 static_cast<double>(DurationNanos));
    updateChaos(Frac);

    PressureSignals Signals;
    // Monitor-table pressure is a thin-lock notion; protocols without
    // the substrate report permanent calm on those axes.
    Signals.MonitorOccupancy = Monitors ? Monitors->occupancy() : 0;
    Signals.RegistryOccupancy = Registry.occupancy();
    Signals.MonitorExhaustionEvents =
        Monitors ? Monitors->exhaustionEvents() : 0;
    Signals.RegistryExhaustionEvents = Registry.exhaustionEvents();
    Signals.EmergencyInflations = Stats.snapshot().EmergencyInflations;
    DegradationLevel Before = Controller.level();
    DegradationLevel After = Controller.tick(Signals);
    {
      LockGuard Guard(Mu);
      if (After != Before)
        Timeline.emplace_back(Now, After);
      // Retry deferred sessions once the ladder has backed off the
      // defer rung.
      if (static_cast<uint8_t>(After) <
          static_cast<uint8_t>(DegradationLevel::DeferInflation))
        retryDeferredLocked();
    }
    // Sampling drain: rings keep only their newest events once they
    // wrap, so the profile must be collected while the load runs.
    // (Engine->tick drains internally; keep the drain unconditional so
    // non-adaptive runs still sample.)
    if (Engine)
      Engine->tick(Attach && Attach->context().isValid()
                       ? &Attach->context()
                       : nullptr);
    else
      Collector.drain();
  }
}

SoakResult SoakRun::run() {
  DurationNanos =
      static_cast<uint64_t>(Config.DurationSeconds * 1e9);
  T0 = monotonicNanos();
  double MaxEndFraction = 0;
  for (const ChaosPhase &P : Chaos)
    MaxEndFraction = std::max(MaxEndFraction, P.EndFraction);
  ChaosOverNanos =
      T0 + static_cast<uint64_t>(MaxEndFraction *
                                 static_cast<double>(DurationNanos));

  obs::setTracing(true);
  Workers.resize(Config.Workers == 0 ? 1 : Config.Workers);
  std::vector<std::thread> WorkerThreads;
  WorkerThreads.reserve(Workers.size());
  for (unsigned I = 0; I < Workers.size(); ++I)
    WorkerThreads.emplace_back([this, I] { workerLoop(I); });
  std::thread Ticker([this] { tickerLoop(); });

  {
    UniqueLock Guard(Mu);
    while (!ScheduleDone || Claims != 0)
      ScheduleCv.wait(Guard);
    ArrivalsDone = true;
  }

  // Grace window: keep ticking (quiet signals now) so the ladder can
  // walk back to Normal and deferred sessions get their retry, then
  // shed whatever never got in.
  uint64_t GraceTicks =
      static_cast<uint64_t>(AdmissionLimits().RecoveryDwellTicks) *
          NumDegradationLevels +
      25;
  for (uint64_t I = 0; I < GraceTicks; ++I) {
    bool Settled;
    {
      LockGuard Guard(Mu);
      Settled = Deferred.empty() &&
                Controller.level() == DegradationLevel::Normal;
    }
    if (Settled)
      break;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(TickNanos));
  }
  {
    LockGuard Guard(Mu);
    ShutdownShed = Deferred.size();
    ShedCount += ShutdownShed;
    Deferred.clear();
    Draining = true;
  }
  QueueCv.notify_all();
  for (std::thread &T : WorkerThreads)
    T.join();
  {
    LockGuard Guard(TickMu);
    StopTicker = true;
  }
  TickCv.notify_all();
  Ticker.join();
  // A phase still armed (ultra-short runs) must not outlive the run.
  for (size_t I = 0; I < Chaos.size(); ++I)
    if (ChaosArmed[I])
      failpoint::disarm(static_cast<failpoint::Id>(Chaos[I].PointId));
  obs::setTracing(false);
  Collector.drain();
  return finish(monotonicNanos() - T0);
}

SoakResult SoakRun::finish(uint64_t RunNanos) {
  SoakResult Result;
  LatencyHistogram Acquire, Session, Dispatch, Wake;
  std::vector<obs::SessionSpanInfo> AllSessions;
  uint64_t Requests = 0, Completed = 0, DegradedRuns = 0,
           AttachFallbacks = 0;
  for (const WorkerState &W : Workers) {
    Acquire.merge(W.Acquire);
    Session.merge(W.Session);
    Dispatch.merge(W.Dispatch);
    AllSessions.insert(AllSessions.end(), W.Sessions.begin(),
                       W.Sessions.end());
    Requests += W.Requests;
    Completed += W.Completed;
    DegradedRuns += W.DegradedRuns;
    AttachFallbacks += W.AttachFallbacks;
  }
  std::vector<obs::LockEvent> Events = Collector.events();
  for (const obs::LockEvent &E : Events)
    if (E.Kind == obs::EventKind::Wake)
      Wake.record(E.Arg);

  obs::SloSnapshot &Slo = Result.Slo;
  Slo.Protocol = Protocol->name();
  Slo.DurationSeconds = static_cast<double>(RunNanos) / 1e9;
  Slo.Acquire = obs::SloQuantiles::of(Acquire);
  Slo.Session = obs::SloQuantiles::of(Session);
  Slo.Dispatch = obs::SloQuantiles::of(Dispatch);
  Slo.Wake = obs::SloQuantiles::of(Wake);
  {
    LockGuard Guard(Mu);
    Slo.SessionsOffered = Offered;
    Slo.SessionsShed = ShedCount;
    Slo.SessionsDeferred = DeferredOnce;
    Result.QueueOverflowShed = QueueOverflow;
    Result.ShutdownShed = ShutdownShed;
    Result.AdmitsAfterChaos = AdmitsAfterChaos;
    Result.LevelTimeline = Timeline;
  }
  Slo.SessionsCompleted = Completed;
  Slo.SessionsDegraded = DegradedRuns;
  Slo.RequestsCompleted = Requests;
  if (Slo.DurationSeconds > 0) {
    Slo.SessionsPerSecond =
        static_cast<double>(Completed) / Slo.DurationSeconds;
    Slo.RequestsPerSecond =
        static_cast<double>(Requests) / Slo.DurationSeconds;
  }
  if (Slo.SessionsOffered > 0)
    Slo.ShedRate = static_cast<double>(Slo.SessionsShed) /
                   static_cast<double>(Slo.SessionsOffered);
  Slo.MonitorExhaustionEvents = Monitors ? Monitors->exhaustionEvents() : 0;
  Slo.RegistryExhaustionEvents = Registry.exhaustionEvents();
  Slo.EmergencyInflations = Stats.snapshot().EmergencyInflations;
  AdmissionController::Counters Ledger = Controller.counters();
  Slo.TicksAtLevel = Ledger.TicksAtLevel;
  Slo.LevelTransitions = Ledger.Escalations + Ledger.DeEscalations;
  Slo.FinalLevel = static_cast<unsigned>(Controller.level());

  Result.Admission = Ledger;
  Result.AttachFallbacks = AttachFallbacks;
  Result.EventsDropped = Collector.droppedEvents();
  Result.ChaosPhasesRun = ChaosPhasesRun;
  if (Engine)
    Result.Policy = Engine->counters();
  Result.MonitorRetirements = Monitors ? Monitors->retirementEvents() : 0;

  // Worst tail: slowest arrival-to-completion sessions, exported as
  // trace spans over the lock events inside their windows.
  std::sort(AllSessions.begin(), AllSessions.end(),
            [](const obs::SessionSpanInfo &A, const obs::SessionSpanInfo &B) {
              return A.EndNanos - A.ArrivalNanos >
                     B.EndNanos - B.ArrivalNanos;
            });
  size_t WorstCount = static_cast<size_t>(
      std::ceil(static_cast<double>(AllSessions.size()) *
                WorstFraction));
  WorstCount = std::min(AllSessions.size(),
                        std::max<size_t>(WorstCount, 1));
  if (!AllSessions.empty()) {
    Result.WorstSessions.assign(AllSessions.begin(),
                                AllSessions.begin() + WorstCount);
    Result.WorstTraceJson = obs::worstSessionsTraceJson(
        Events, Result.WorstSessions, &TheHeap.classes(), Protocol->name());
  }
  return Result;
}

} // namespace

SoakResult load::runSoak(const SoakConfig &Config) {
  SoakRun Run(Config);
  return Run.run();
}
