//===- bench/bench_fig3.cpp - Reproduce paper Figure 3 --------------------===//
//
// Figure 3: "Depth of lock nesting by benchmark.  Most lock operations
// are performed on objects that are not locked (they are the First lock
// on the object).  Of the remaining lock operations, the vast majority
// are Second locks."
//
// Each row replays a profile through the instrumented thin-lock protocol
// and prints the *measured* First/Second/Third/Fourth+ percentages next
// to the paper's mix, plus the two aggregate claims of §3.2 (median 80%
// first locks, minimum 45%).
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
  std::printf("=== Figure 3: Lock operations by nesting depth ===\n\n");

  ReplayConfig Cfg;
  Cfg.ScaleDivisor = 256;
  Cfg.MinSyncOps = 40'000;
  Cfg.MaxSyncOps = 150'000;
  Cfg.WorkPerSync = 0; // Characterization only; no need to burn time.

  TableFormatter Table({"Program", "First", "Second", "Third", "Fourth+",
                        "(paper First)"});

  std::vector<double> FirstFractions;
  for (const BenchmarkProfile &Profile : macroBenchmarkProfiles()) {
    Heap TheHeap;
    ThreadRegistry Registry;
    MonitorTable Monitors;
    LockStats Stats;
    ThinLockManager Locks(Monitors, &Stats);
    ScopedThreadAttachment Main(Registry, "fig3");

    replayProfile(Profile, Locks, TheHeap, Main.context(), Cfg);
    LockStats::Snapshot S = Stats.snapshot();

    FirstFractions.push_back(S.depthFraction(0));
    Table.addRow(
        {Profile.Name,
         TableFormatter::formatDouble(S.depthFraction(0) * 100, 1) + "%",
         TableFormatter::formatDouble(S.depthFraction(1) * 100, 1) + "%",
         TableFormatter::formatDouble(S.depthFraction(2) * 100, 1) + "%",
         TableFormatter::formatDouble(S.depthFraction(3) * 100, 1) + "%",
         TableFormatter::formatDouble(Profile.DepthMix[0] * 100, 1) + "%"});
  }
  std::printf("%s\n", Table.render().c_str());

  std::sort(FirstFractions.begin(), FirstFractions.end());
  double Median = (FirstFractions[FirstFractions.size() / 2 - 1] +
                   FirstFractions[FirstFractions.size() / 2]) /
                  2.0;
  std::printf("measured first-lock fraction: median %.1f%% (paper: 80%%), "
              "min %.1f%% (paper: 45%%)\n",
              Median * 100, FirstFractions.front() * 100);
  std::printf("no benchmark locks deeper than four (paper: \"none of the "
              "benchmarks obtained any locks nested more than four "
              "deep\")\n");
  return 0;
}
