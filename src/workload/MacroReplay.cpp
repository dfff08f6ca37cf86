//===- workload/MacroReplay.cpp - Profile-driven macro replay -------------===//

#include "workload/MacroReplay.h"

#include "support/Compiler.h"

#include <cassert>

using namespace thinlocks;
using namespace thinlocks::workload;

ReplayConfig workload::scaledConfigFor(const BenchmarkProfile &Profile,
                                       uint64_t TargetSyncOps,
                                       uint32_t WorkPerSync) {
  assert(TargetSyncOps > 0 && "target must be positive");
  ReplayConfig Cfg;
  Cfg.ScaleDivisor = Profile.SyncOperations > TargetSyncOps
                         ? Profile.SyncOperations / TargetSyncOps
                         : 1;
  Cfg.MinSyncOps = 1;
  Cfg.MaxSyncOps = 0;
  Cfg.WorkPerSync = WorkPerSync;
  return Cfg;
}

uint32_t workload::sampleSequenceDepth(const BenchmarkProfile &Profile,
                                       double U) {
  // Figure 3 gives per-*operation* depth fractions f1..f4.  A nesting
  // sequence of depth d contributes one operation at every depth <= d,
  // so the sequence-depth distribution q satisfies q_d = f_d - f_{d+1}
  // (f is non-increasing), with q_4 = f_4.
  double Q[4];
  for (unsigned D = 0; D < 4; ++D) {
    double Next = D == 3 ? 0.0 : Profile.DepthMix[D + 1];
    Q[D] = Profile.DepthMix[D] - Next;
    if (Q[D] < 0.0)
      Q[D] = 0.0;
  }
  double Total = Q[0] + Q[1] + Q[2] + Q[3];
  if (Total <= 0.0)
    return 1;
  double Scaled = U * Total;
  for (unsigned D = 0; D < 4; ++D) {
    if (Scaled < Q[D])
      return D + 1;
    Scaled -= Q[D];
  }
  return 4;
}

size_t workload::sampleObjectIndex(size_t Count, SplitMix64 &Rng) {
  assert(Count > 0 && "sampling from an empty population");
  // Squaring the uniform variate skews towards low indices: index 0's
  // neighbourhood is synchronized far more often than the tail, giving
  // the heavy re-synchronization Table 1 reports (median 22.7 syncs per
  // synchronized object) without per-profile fitting.
  double U = Rng.nextDouble();
  size_t Index = static_cast<size_t>(U * U * static_cast<double>(Count));
  return Index >= Count ? Count - 1 : Index;
}

TL_NOINLINE uint32_t workload::replayWork(uint32_t Seed, uint32_t Units) {
  // Knuth multiplicative hash keeps distinct seeds distinct; |1 keeps the
  // xorshift state nonzero.
  uint32_t X = Seed * 2654435761u | 1u;
  for (uint32_t I = 0; I < Units; ++I) {
    X ^= X << 13;
    X ^= X >> 17;
    X ^= X << 5;
  }
  return X;
}
