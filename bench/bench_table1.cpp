//===- bench/bench_table1.cpp - Reproduce paper Table 1 -------------------===//
//
// Table 1: macro-benchmark characterization — application/library sizes,
// objects created, synchronized objects, synchronization operations, and
// syncs per synchronized object, for 18 programs.
//
// The profile data (from the paper, see workload/Profiles.cpp) drives a
// scaled instrumented replay; the "replayed" columns are *measured* by
// LockStats during the replay, demonstrating that the harness regenerates
// the characterization rather than echoing constants: measured sync ops
// and the syncs/object ratio come from the instrumentation.
//
//===----------------------------------------------------------------------===//

#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "support/TableFormatter.h"
#include "threads/ThreadRegistry.h"
#include "workload/MacroReplay.h"
#include "workload/Profiles.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace thinlocks;
using namespace thinlocks::workload;

int main() {
  std::printf("=== Table 1: Macro-Benchmarks (characterization) ===\n");
  std::printf("paper columns from Table 1; 'measured' columns from an "
              "instrumented scaled replay (~200k ops per profile)\n\n");

  TableFormatter Table({"Program", "App Size", "Lib Size", "Objects",
                        "Sync'd Obj", "Syncs", "Syncs/S.Obj",
                        "measured Syncs", "measured S/SO"});

  std::vector<double> Ratios;
  std::vector<double> MeasuredFirstFractions;

  for (const BenchmarkProfile &Profile : macroBenchmarkProfiles()) {
    Heap TheHeap;
    ThreadRegistry Registry;
    MonitorTable Monitors;
    LockStats Stats;
    ThinLockManager Locks(Monitors, &Stats);
    ScopedThreadAttachment Main(Registry, "table1");

    // Adaptive scale: ~200k ops per profile, full scale for profiles
    // smaller than that, so measured ratios match the paper's column.
    ReplayConfig Cfg = scaledConfigFor(Profile, 200'000, /*WorkPerSync=*/0);
    ReplayResult Result =
        replayProfile(Profile, Locks, TheHeap, Main.context(), Cfg);
    LockStats::Snapshot S = Stats.snapshot();

    double MeasuredRatio =
        static_cast<double>(S.Acquisitions) /
        static_cast<double>(Result.SynchronizedObjects);
    Ratios.push_back(syncsPerSyncObject(Profile));
    MeasuredFirstFractions.push_back(S.depthFraction(0));

    Table.addRow(
        {Profile.Name,
         TableFormatter::formatWithCommas(Profile.AppBytecodeBytes),
         TableFormatter::formatWithCommas(Profile.LibBytecodeBytes),
         TableFormatter::formatWithCommas(Profile.ObjectsCreated),
         TableFormatter::formatWithCommas(Profile.SynchronizedObjects),
         TableFormatter::formatWithCommas(Profile.SyncOperations),
         TableFormatter::formatDouble(syncsPerSyncObject(Profile), 1),
         TableFormatter::formatWithCommas(S.Acquisitions),
         TableFormatter::formatDouble(MeasuredRatio, 1)});
  }
  std::printf("%s\n", Table.render().c_str());

  std::sort(Ratios.begin(), Ratios.end());
  double Median =
      (Ratios[Ratios.size() / 2 - 1] + Ratios[Ratios.size() / 2]) / 2.0;
  std::printf("median syncs per synchronized object: %.1f   "
              "(paper reports 22.7)\n",
              Median);
  return 0;
}
