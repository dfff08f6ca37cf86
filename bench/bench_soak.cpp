//===- bench/bench_soak.cpp - Sustained-load soak driver ------------------===//
//
// The long-running robustness harness (DESIGN.md §12): open-loop session
// load over the thin-lock substrate with SLO tracking, admission
// control, and graceful overload degradation.  Sized by *arrival rate*
// (not thread count) so the 1-CPU CI host and a real soak box run the
// same program at different --rate/--duration-s.
//
// Modes:
//   default        sustained load, no fault injection.
//   --chaos        additionally runs the seeded failpoint schedule
//                  (registry/monitor exhaustion, spurious wakes, widened
//                  race windows) under load.  Requires a
//                  -DTHINLOCKS_FAILPOINTS=ON build; exits 77 (ctest
//                  SKIP_RETURN_CODE) otherwise.
//   --smoke        CI profile: short duration, modest rate.
//   --adaptive     an AdaptivePolicyEngine ticks with the admission
//                  controller, tracks idle objects through the
//                  profiler and speculatively deflates the quiescent
//                  monitors of cold ones.
//
// The binary is its own referee: quantile monotonicity, the accounting
// identity offered == completed + shed, typed-error bookkeeping, trace
// validity, and — under chaos — that the ladder escalated, every phase
// ran, and admission *recovered* (final level Normal, post-chaos
// admits).  Any violated check exits non-zero, which is what makes it
// usable from ctest and bench/run_benches.sh (BENCH_SOAK=1).
//
// The harness is protocol-generic: --protocol NAME (default ThinLock)
// soaks any registered protocol; the name lands in the SLO snapshot, the
// config block, and every trace span.
// --adaptive stays thin-lock-only (the engine deflates ThinLock monitors).
//
// Usage:
//   bench_soak [--duration-s N] [--rate R] [--workers N] [--seed S]
//              [--protocol NAME] [--chaos] [--smoke] [--adaptive]
//              [--out BENCH_soak.json] [--trace-out PATH]
//
//===----------------------------------------------------------------------===//

#include "BenchArtifact.h"

#include "core/ProtocolRegistry.h"
#include "load/SoakHarness.h"
#include "obs/ChromeTrace.h"
#include "support/FailPoint.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace thinlocks;
using namespace thinlocks::bench;
using namespace thinlocks::load;

namespace {

struct Options {
  double DurationSeconds = 10;
  double Rate = 300;
  unsigned Workers = 3;
  uint64_t Seed = 1;
  bool Chaos = false;
  bool Smoke = false;
  bool Adaptive = false;
  const char *Protocol = DefaultProtocolName;
  const char *Out = "BENCH_soak.json";
  const char *TraceOut = nullptr;
};

[[noreturn]] void usage(const char *Argv0, int Exit) {
  std::fprintf(stderr,
               "usage: %s [--duration-s N] [--rate R] [--workers N]\n"
               "          [--seed S] [--protocol NAME] [--chaos] [--smoke]\n"
               "          [--adaptive] [--out PATH] [--trace-out PATH]\n",
               Argv0);
  std::exit(Exit);
}

bool parseOptions(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    auto next = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(Argv[0], 2);
      return Argv[++I];
    };
    if (std::strcmp(Argv[I], "--duration-s") == 0)
      Opts.DurationSeconds = std::strtod(next(), nullptr);
    else if (std::strcmp(Argv[I], "--rate") == 0)
      Opts.Rate = std::strtod(next(), nullptr);
    else if (std::strcmp(Argv[I], "--workers") == 0)
      Opts.Workers =
          static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    else if (std::strcmp(Argv[I], "--seed") == 0)
      Opts.Seed = std::strtoull(next(), nullptr, 10);
    else if (std::strcmp(Argv[I], "--chaos") == 0)
      Opts.Chaos = true;
    else if (std::strcmp(Argv[I], "--smoke") == 0)
      Opts.Smoke = true;
    else if (std::strcmp(Argv[I], "--adaptive") == 0)
      Opts.Adaptive = true;
    else if (std::strcmp(Argv[I], "--protocol") == 0)
      Opts.Protocol = next();
    else if (std::strncmp(Argv[I], "--protocol=", 11) == 0)
      Opts.Protocol = Argv[I] + 11;
    else if (std::strcmp(Argv[I], "--out") == 0)
      Opts.Out = next();
    else if (std::strcmp(Argv[I], "--trace-out") == 0)
      Opts.TraceOut = next();
    else if (std::strcmp(Argv[I], "--help") == 0)
      usage(Argv[0], 0);
    else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Argv[I]);
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseOptions(Argc, Argv, Opts))
    return 2;

  if (Opts.Chaos && !failpoint::compiledIn()) {
    std::fprintf(stderr,
                 "skip: --chaos needs a -DTHINLOCKS_FAILPOINTS=ON build\n");
    return 77; // ctest SKIP_RETURN_CODE.
  }

  std::string Protocol = Opts.Protocol;
  if (!isRegisteredProtocol(Protocol)) {
    std::fprintf(stderr, "error: unknown protocol '%s'; registered:",
                 Protocol.c_str());
    for (const std::string &Name : registeredProtocolNames())
      std::fprintf(stderr, " %s", Name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (Opts.Adaptive && Protocol != "ThinLock") {
    std::fprintf(stderr,
                 "error: --adaptive deflates thin-lock monitors; "
                 "protocol '%s' has none\n",
                 Protocol.c_str());
    return 2;
  }

  SoakConfig Config;
  Config.Protocol = Protocol;
  Config.ArrivalsPerSecond = Opts.Rate;
  Config.DurationSeconds = Opts.Smoke ? 3.0 : Opts.DurationSeconds;
  Config.Workers = Opts.Workers;
  Config.Seed = Opts.Seed;
  Config.Chaos = Opts.Chaos;
  if (Opts.Adaptive) {
    Config.AdaptivePolicy = true;
    // The harness owns its heap; session objects outlive the run, so
    // the engine may dereference cold tracked addresses to deflate.
    Config.Policy.SpeculativeDeflation = true;
  }
  if (Opts.Chaos) {
    // Shrunk resource spaces: occupancy signals move visibly, while the
    // injected exhaustion (transient by design) supplies the typed
    // errors.  Genuine permanent exhaustion would — correctly — pin the
    // ladder high, and this run must end recovered.
    Config.MonitorCapacity = 1u << 16;
    Config.RegistryCapacity = 256;
  }

  std::printf("bench_soak: protocol=%s rate=%.0f/s duration=%.1fs "
              "workers=%u seed=%llu chaos=%d adaptive=%d\n",
              Protocol.c_str(), Config.ArrivalsPerSecond,
              Config.DurationSeconds, Config.Workers,
              static_cast<unsigned long long>(Config.Seed),
              Opts.Chaos ? 1 : 0, Opts.Adaptive ? 1 : 0);

  SoakResult Result = runSoak(Config);
  const obs::SloSnapshot &Slo = Result.Slo;

  std::printf(
      "completed=%llu offered=%llu shed=%llu (%.1f%%) deferred=%llu "
      "degraded=%llu\n",
      static_cast<unsigned long long>(Slo.SessionsCompleted),
      static_cast<unsigned long long>(Slo.SessionsOffered),
      static_cast<unsigned long long>(Slo.SessionsShed),
      Slo.ShedRate * 100.0,
      static_cast<unsigned long long>(Slo.SessionsDeferred),
      static_cast<unsigned long long>(Slo.SessionsDegraded));
  std::printf("acquire p50=%lluns p99=%lluns p999=%lluns max=%lluns\n",
              static_cast<unsigned long long>(Slo.Acquire.P50),
              static_cast<unsigned long long>(Slo.Acquire.P99),
              static_cast<unsigned long long>(Slo.Acquire.P999),
              static_cast<unsigned long long>(Slo.Acquire.Max));
  std::printf("session p50=%lluns p99=%lluns p999=%lluns max=%lluns\n",
              static_cast<unsigned long long>(Slo.Session.P50),
              static_cast<unsigned long long>(Slo.Session.P99),
              static_cast<unsigned long long>(Slo.Session.P999),
              static_cast<unsigned long long>(Slo.Session.Max));
  std::printf("dispatch p50=%lluns p99=%lluns p999=%lluns max=%lluns\n",
              static_cast<unsigned long long>(Slo.Dispatch.P50),
              static_cast<unsigned long long>(Slo.Dispatch.P99),
              static_cast<unsigned long long>(Slo.Dispatch.P999),
              static_cast<unsigned long long>(Slo.Dispatch.Max));
  std::printf("wake p50=%lluns p99=%lluns count=%llu\n",
              static_cast<unsigned long long>(Slo.Wake.P50),
              static_cast<unsigned long long>(Slo.Wake.P99),
              static_cast<unsigned long long>(Slo.Wake.Count));
  std::printf("errors: monitor_exhaustion=%llu registry_exhaustion=%llu "
              "emergency_inflations=%llu attach_fallbacks=%llu\n",
              static_cast<unsigned long long>(Slo.MonitorExhaustionEvents),
              static_cast<unsigned long long>(Slo.RegistryExhaustionEvents),
              static_cast<unsigned long long>(Slo.EmergencyInflations),
              static_cast<unsigned long long>(Result.AttachFallbacks));
  std::printf("ladder: transitions=%llu final=%s ticks=[%llu %llu %llu "
              "%llu]\n",
              static_cast<unsigned long long>(Slo.LevelTransitions),
              degradationLevelName(
                  static_cast<DegradationLevel>(Slo.FinalLevel)),
              static_cast<unsigned long long>(Slo.TicksAtLevel[0]),
              static_cast<unsigned long long>(Slo.TicksAtLevel[1]),
              static_cast<unsigned long long>(Slo.TicksAtLevel[2]),
              static_cast<unsigned long long>(Slo.TicksAtLevel[3]));
  for (const auto &Transition : Result.LevelTimeline)
    std::printf("  ladder -> %s\n",
                degradationLevelName(Transition.second));
  if (Opts.Adaptive) {
    const policy::PolicyCounters &P = Result.Policy;
    std::printf("policy: ticks=%llu spec_deflations=%llu tracked=%llu\n",
                static_cast<unsigned long long>(P.Ticks),
                static_cast<unsigned long long>(P.SpeculativeDeflations),
                static_cast<unsigned long long>(P.ObjectsTracked));
  }

  // --- Self-checks -------------------------------------------------------
  check(Slo.Protocol == Protocol,
        "SLO snapshot not labeled with the protocol under load");
  check(Slo.SessionsCompleted > 0, "no sessions completed");
  check(Slo.RequestsCompleted > 0, "no requests completed");
  check(Slo.Acquire.monotone(), "acquire quantiles not monotone");
  check(Slo.Session.monotone(), "session quantiles not monotone");
  check(Slo.Dispatch.monotone(), "dispatch quantiles not monotone");
  check(Slo.Wake.monotone(), "wake quantiles not monotone");
  check(Slo.SessionsOffered ==
            Slo.SessionsCompleted + Slo.SessionsShed,
        "accounting identity offered == completed + shed violated");
  if (!Result.WorstTraceJson.empty()) {
    std::string Error;
    check(obs::validateChromeTraceJson(Result.WorstTraceJson, &Error),
          "worst-sessions trace failed validation");
    if (!Error.empty())
      std::fprintf(stderr, "  trace error: %s\n", Error.c_str());
  }
  check(!Result.WorstSessions.empty(), "no worst-session spans retained");

  if (Opts.Adaptive)
    check(Result.Policy.Ticks > 0,
          "adaptive engine wired but never ticked");

  if (Opts.Chaos) {
    check(Result.ChaosPhasesRun == buildChaosSchedule(ChaosSeed).size(),
          "not every chaos phase ran (raise --duration-s)");
    check(Result.Admission.Escalations > 0,
          "chaos ran but the ladder never escalated");
    check(Slo.MonitorExhaustionEvents + Slo.RegistryExhaustionEvents +
                  Slo.EmergencyInflations >
              0,
          "chaos ran but no typed exhaustion errors were recorded");
    check(Slo.SessionsShed > 0, "chaos ran but nothing was shed");
    check(Slo.FinalLevel ==
              static_cast<unsigned>(DegradationLevel::Normal),
          "admission did not recover to Normal after pressure lifted");
    check(Result.AdmitsAfterChaos > 0,
          "no sessions admitted after the chaos phases ended");
  }

  // --- Artifacts ---------------------------------------------------------
  JsonWriter Doc = beginArtifact("thinlocks-bench-soak-v1");
  Doc.key("config")
      .beginObject()
      .field("protocol", Protocol)
      .field("rate_per_s", Config.ArrivalsPerSecond, 6)
      .field("duration_s", Config.DurationSeconds, 6)
      .field("workers", Config.Workers)
      .field("seed", Config.Seed)
      .field("chaos", Opts.Chaos)
      .field("heavy_fraction", Config.HeavyFraction, 6)
      .field("hot_objects", Config.HotObjects)
      .field("zipf_theta", Config.ZipfTheta, 6)
      .field("adaptive", Opts.Adaptive)
      .end();
  Slo.writeJson(Doc.key("slo"));
  if (Opts.Adaptive) {
    const policy::PolicyCounters &P = Result.Policy;
    Doc.key("policy")
        .beginObject()
        .field("ticks", P.Ticks)
        .field("speculative_deflations", P.SpeculativeDeflations)
        .field("monitor_retirements", Result.MonitorRetirements)
        .end();
  }
  if (!writeArtifact(Opts.Out, Doc))
    return 1;
  if (Opts.TraceOut != nullptr && !Result.WorstTraceJson.empty() &&
      !writeFile(Opts.TraceOut, Result.WorstTraceJson))
    return 1;
  return exitStatus("bench_soak");
}
