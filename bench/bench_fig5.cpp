//===- bench/bench_fig5.cpp - Reproduce paper Figure 5 --------------------===//
//
// Figure 5: "Relative performance of locking mechanisms on various
// macro-benchmarks" — speedup of ThinLock and IBM112 over JDK111 on the
// 18 macro-benchmarks.
//
// Paper results: "Thin locks sped up the benchmark programs by a median
// of 1.22 and a maximum of 1.7 over the JDK111 implementation.  The
// IBM112 implementation only achieved a median speedup of 1.04, due to
// the fact that a significant number of applications were actually
// slowed down" (large locking working sets overwhelm the 32 hot locks).
//
// Methodology: each profile is replayed (median of 3 runs, mirroring the
// paper's median-of-10) through all three protocols with identical
// object-popularity, nesting, allocation and inter-sync computation; only
// the locking implementation differs.
//
//===----------------------------------------------------------------------===//

#include "core/ProtocolRegistry.h"
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

namespace {

constexpr unsigned Samples = 3;

// Per-profile adaptive scale (~100k sync ops each, tiny profiles run at
// full scale) preserves each program's natural allocation-to-sync ratio,
// which is what makes the low-sync programs (jobe, javap, jaNet) come
// out near 1.0x, as in the paper.  WorkPerSync calibrates how much of
// the run is non-locking computation.
ReplayConfig replayConfig(const BenchmarkProfile &Profile) {
  return scaledConfigFor(Profile, 100'000, /*WorkPerSync=*/96);
}

template <typename ProtocolFactory>
uint64_t medianReplayNanos(const BenchmarkProfile &Profile,
                           ProtocolFactory MakeAndRun) {
  std::vector<uint64_t> Times;
  for (unsigned I = 0; I < Samples; ++I)
    Times.push_back(MakeAndRun(Profile));
  std::sort(Times.begin(), Times.end());
  return Times[Times.size() / 2];
}

template <typename P> uint64_t runReplay(const BenchmarkProfile &Profile) {
  Heap TheHeap;
  ThreadRegistry Registry;
  ProtocolMaker<P> Maker{ProtocolConfig()};
  ScopedThreadAttachment Main(Registry);
  return replayProfile(Profile, Maker.Protocol, TheHeap, Main.context(),
                       replayConfig(Profile))
      .ElapsedNanos;
}

double median(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2]
               : (Values[N / 2 - 1] + Values[N / 2]) / 2.0;
}

} // namespace

int main() {
  std::printf("=== Figure 5: Macro-benchmark speedup over JDK111 ===\n");
  std::printf("(median of %u replays per cell; speedup = "
              "time(JDK111) / time(protocol))\n\n",
              Samples);

  TableFormatter Table(
      {"Program", "JDK111 ms", "ThinLock ms", "IBM112 ms",
       "ThinLock speedup", "IBM112 speedup"});

  std::vector<double> ThinSpeedups, IbmSpeedups;
  for (const BenchmarkProfile &Profile : macroBenchmarkProfiles()) {
    uint64_t Jdk = medianReplayNanos(Profile, runReplay<MonitorCache>);
    uint64_t Thin = medianReplayNanos(Profile, runReplay<ThinLockManager>);
    uint64_t Ibm = medianReplayNanos(Profile, runReplay<HotLocks>);

    double ThinSpeedup = static_cast<double>(Jdk) / Thin;
    double IbmSpeedup = static_cast<double>(Jdk) / Ibm;
    ThinSpeedups.push_back(ThinSpeedup);
    IbmSpeedups.push_back(IbmSpeedup);

    Table.addRow({Profile.Name, TableFormatter::formatDouble(Jdk / 1e6, 2),
                  TableFormatter::formatDouble(Thin / 1e6, 2),
                  TableFormatter::formatDouble(Ibm / 1e6, 2),
                  TableFormatter::formatDouble(ThinSpeedup, 2) + "x",
                  TableFormatter::formatDouble(IbmSpeedup, 2) + "x"});
  }
  std::printf("%s\n", Table.render().c_str());

  std::printf("ThinLock speedup: median %.2fx, max %.2fx   "
              "(paper: median 1.22x, max 1.7x)\n",
              median(ThinSpeedups),
              *std::max_element(ThinSpeedups.begin(), ThinSpeedups.end()));
  std::printf("IBM112 speedup:  median %.2fx, min %.2fx   "
              "(paper: median 1.04x, with several slowdowns < 1.0x)\n",
              median(IbmSpeedups),
              *std::min_element(IbmSpeedups.begin(), IbmSpeedups.end()));
  return 0;
}
