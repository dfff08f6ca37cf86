//===- bench/macro_trace.cpp - Traced macro replay trace artifact ---------===//
//
// The observability demo (DESIGN.md §10): runs one contended macro
// replay with lock-event tracing enabled, then emits the two exporter
// views — a Chrome trace_event JSON file (load it at chrome://tracing or
// https://ui.perfetto.dev) and the top-N hot-lock table on stdout.
//
// The run has a known answer: replayProfileContended() hammers one
// shared "HotShared" object from several threads, so that object must
// rank first in the hot-lock table.  The binary validates both the
// ranking and the JSON (through obs::validateChromeTraceJson) and exits
// non-zero when either fails, which is what makes it usable as a CI
// smoke check and from bench/run_benches.sh (BENCH_TRACE=1).
//
// Usage:
//   macro_trace [--profile javac] [--out BENCH_trace.json] [--top 10]
//               [--contenders 3] [--hammer-ops 40000]
//
//===----------------------------------------------------------------------===//

#include "BenchArtifact.h"

#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "obs/ChromeTrace.h"
#include "obs/LockEventCollector.h"
#include "threads/ThreadRegistry.h"
#include "workload/MacroReplay.h"
#include "workload/Profiles.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace thinlocks;

namespace {

struct Options {
  const char *Profile = "javac";
  const char *Out = "BENCH_trace.json";
  unsigned Top = 10;
  unsigned Contenders = 3;
  uint64_t HammerOps = 40000;
};

[[noreturn]] void usage(const char *Argv0, int Exit) {
  std::fprintf(stderr,
               "usage: %s [--profile NAME] [--out PATH] [--top N]\n"
               "          [--contenders N] [--hammer-ops N]\n",
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
    if (std::strcmp(Argv[I], "--profile") == 0)
      Opts.Profile = next();
    else if (std::strcmp(Argv[I], "--out") == 0)
      Opts.Out = next();
    else if (std::strcmp(Argv[I], "--top") == 0)
      Opts.Top = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    else if (std::strcmp(Argv[I], "--contenders") == 0)
      Opts.Contenders =
          static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    else if (std::strcmp(Argv[I], "--hammer-ops") == 0)
      Opts.HammerOps = std::strtoull(next(), nullptr, 10);
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

  const workload::BenchmarkProfile *Profile =
      workload::findProfile(Opts.Profile);
  if (!Profile) {
    std::fprintf(stderr, "error: unknown profile '%s'\n", Opts.Profile);
    return 2;
  }

  ThreadRegistry Registry;
  MonitorTable Monitors;
  ThinLockManager Locks(Monitors);
  Heap TheHeap;
  obs::LockEventCollector Collector(Registry);

  workload::ContendedReplayConfig Cfg;
  Cfg.Contenders = Opts.Contenders;
  Cfg.HammerOpsPerThread = Opts.HammerOps;

  obs::setTracing(true);
  // Sampling aggregator: drain the per-thread rings periodically while
  // the workload runs, so the profile covers the whole run instead of
  // just the last ring-capacity events per thread (the rings keep only
  // the newest events once they wrap).
  std::atomic<bool> StopSampler{false};
  std::thread Sampler([&Collector, &StopSampler] {
    while (!StopSampler.load(std::memory_order_acquire)) {
      Collector.drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  workload::ContendedReplayResult Run;
  {
    ScopedThreadAttachment Attach(Registry, "replay-main");
    Run = workload::replayProfileContended(*Profile, Locks, TheHeap,
                                           Registry, Attach.context(), Cfg);
  }
  obs::setTracing(false);
  StopSampler.store(true, std::memory_order_release);
  Sampler.join();
  Collector.drain();

  std::printf("profile=%s sync_ops=%llu hammer_ops=%llu events=%llu "
              "dropped=%llu\n",
              Profile->Name,
              static_cast<unsigned long long>(Run.Replay.SyncOperations),
              static_cast<unsigned long long>(Run.HammerOps),
              static_cast<unsigned long long>(Collector.totalEvents()),
              static_cast<unsigned long long>(Collector.droppedEvents()));

  const ClassRegistry &Classes = TheHeap.classes();
  std::string Table = Collector.formatTopLocks(Opts.Top, &Classes);
  std::fputs(Table.c_str(), stdout);

  // Ground truth: the deliberately hammered object must top the table.
  std::vector<obs::HotLockEntry> Top = Collector.topLocks(1);
  uint64_t HotAddr = reinterpret_cast<uint64_t>(Run.HotObject);
  if (Top.empty() || Top[0].ObjectAddr != HotAddr) {
    std::fprintf(stderr,
                 "error: hot object 0x%llx is not the top-ranked lock\n",
                 static_cast<unsigned long long>(HotAddr));
    return 1;
  }

  std::string Json = obs::toChromeTraceJson(Collector.events(), &Classes);
  std::string Error;
  if (!obs::validateChromeTraceJson(Json, &Error)) {
    std::fprintf(stderr, "error: generated trace failed validation: %s\n",
                 Error.c_str());
    return 1;
  }
  return bench::writeFile(Opts.Out, Json) ? 0 : 1;
}
