//===- tests/workload_test.cpp - Profiles, kernels, replay ----------------===//

#include "workload/MacroReplay.h"
#include "workload/MicroBench.h"
#include "workload/Profiles.h"

#include "baselines/HotLocks.h"
#include "baselines/MonitorCache.h"
#include "core/ProtocolRegistry.h"
#include "core/ThinLock.h"
#include "vm/NativeLibrary.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace thinlocks;
using namespace thinlocks::workload;

//===----------------------------------------------------------------------===//
// Profiles: the Table 1 / Figure 3 data must satisfy the paper's stated
// aggregate properties.
//===----------------------------------------------------------------------===//

TEST(Profiles, Has18Benchmarks) {
  EXPECT_EQ(macroBenchmarkProfiles().size(), 18u);
}

TEST(Profiles, MedianSyncsPerObjectMatchesPaper) {
  // Paper §3.1: "the median number of synchronizations per synchronized
  // object is 22.7".
  EXPECT_NEAR(medianSyncsPerSyncObject(), 22.7, 0.15);
}

TEST(Profiles, MedianFirstLockFractionIs80Percent) {
  // Paper §3.2: "a median of 80% of all lock operations are on unlocked
  // objects".
  EXPECT_NEAR(medianFirstLockFraction(), 0.80, 0.005);
}

TEST(Profiles, MinimumFirstLockFractionIsAtLeast45Percent) {
  // Paper §3.2: "at least 45% of locks obtained by any of the benchmark
  // applications were for unlocked objects".
  for (const BenchmarkProfile &P : macroBenchmarkProfiles())
    EXPECT_GE(P.DepthMix[0], 0.45) << P.Name;
}

TEST(Profiles, DepthMixesAreDistributions) {
  for (const BenchmarkProfile &P : macroBenchmarkProfiles()) {
    double Sum = 0;
    for (double F : P.DepthMix) {
      EXPECT_GE(F, 0.0) << P.Name;
      Sum += F;
    }
    EXPECT_NEAR(Sum, 1.0, 1e-9) << P.Name;
    // Figure 3 is monotone: first >= second >= third >= fourth.
    EXPECT_GE(P.DepthMix[0], P.DepthMix[1]) << P.Name;
    EXPECT_GE(P.DepthMix[1], P.DepthMix[2]) << P.Name;
    EXPECT_GE(P.DepthMix[2], P.DepthMix[3]) << P.Name;
  }
}

TEST(Profiles, SyncObjectsAreMinorityOfObjects) {
  // Paper §3.1: synchronized objects are "generally less than a tenth of
  // the total number of objects created" — allow the documented
  // exceptions but require the ratio < 1 everywhere.
  int Under10Pct = 0;
  for (const BenchmarkProfile &P : macroBenchmarkProfiles()) {
    EXPECT_LT(P.SynchronizedObjects, P.ObjectsCreated) << P.Name;
    if (P.SynchronizedObjects * 10 <= P.ObjectsCreated)
      ++Under10Pct;
  }
  EXPECT_GE(Under10Pct, 9); // "generally".
}

TEST(Profiles, JaxAnchorsMatchPaperProse) {
  const BenchmarkProfile *Jax = findProfile("jax");
  ASSERT_NE(Jax, nullptr);
  // "Jax made almost 19 million calls to the get method of BitSet".
  EXPECT_GT(Jax->SyncOperations, 19'000'000u);
  EXPECT_NEAR(syncsPerSyncObject(*Jax), 4312.0, 1.0);
}

TEST(Profiles, JavalexAnchorsMatchPaperProse) {
  const BenchmarkProfile *Javalex = findProfile("javalex");
  ASSERT_NE(Javalex, nullptr);
  // "2.4 million synchronized method calls" (order of magnitude ~2M).
  EXPECT_GT(Javalex->SyncOperations, 1'500'000u);
  EXPECT_LT(Javalex->SyncOperations, 3'000'000u);
  EXPECT_GT(Javalex->LibraryFraction, 0.5); // Vector-dominated.
}

TEST(Profiles, FindProfileByName) {
  EXPECT_NE(findProfile("javac"), nullptr);
  EXPECT_EQ(findProfile("no-such-benchmark"), nullptr);
}

//===----------------------------------------------------------------------===//
// Depth sequence sampling
//===----------------------------------------------------------------------===//

TEST(MacroReplay, SampleSequenceDepthReproducesOperationMix) {
  const BenchmarkProfile *P = findProfile("trans");
  ASSERT_NE(P, nullptr);
  SplitMix64 Rng(7);
  uint64_t OpsAtDepth[4] = {0, 0, 0, 0};
  uint64_t TotalOps = 0;
  for (int I = 0; I < 200000; ++I) {
    uint32_t D = sampleSequenceDepth(*P, Rng.nextDouble());
    ASSERT_GE(D, 1u);
    ASSERT_LE(D, 4u);
    for (uint32_t K = 0; K < D; ++K)
      ++OpsAtDepth[K];
    TotalOps += D;
  }
  for (int B = 0; B < 4; ++B) {
    double Fraction =
        static_cast<double>(OpsAtDepth[B]) / static_cast<double>(TotalOps);
    EXPECT_NEAR(Fraction, P->DepthMix[B], 0.01) << "bucket " << B;
  }
}

TEST(MacroReplay, SampleObjectIndexIsSkewedTowardsZero) {
  SplitMix64 Rng(11);
  uint64_t LowHalf = 0;
  constexpr int Samples = 100000;
  for (int I = 0; I < Samples; ++I)
    if (sampleObjectIndex(1000, Rng) < 500)
      ++LowHalf;
  // u^2 skew: P(index < N/2) = sqrt(0.5) ~ 0.707.
  EXPECT_GT(LowHalf, Samples * 0.68);
  EXPECT_LT(LowHalf, Samples * 0.74);
}

TEST(MacroReplay, SampleObjectIndexStaysInRange) {
  SplitMix64 Rng(13);
  for (int I = 0; I < 10000; ++I)
    EXPECT_LT(sampleObjectIndex(7, Rng), 7u);
}

TEST(MacroReplay, ReplayWorkIsDeterministic) {
  EXPECT_EQ(replayWork(42, 10), replayWork(42, 10));
  EXPECT_NE(replayWork(42, 10), replayWork(43, 10));
}

//===----------------------------------------------------------------------===//
// Native replay across protocols
//===----------------------------------------------------------------------===//

namespace {

ReplayConfig quickConfig() {
  ReplayConfig Cfg;
  Cfg.ScaleDivisor = 2048;
  Cfg.MinSyncOps = 1000;
  Cfg.MaxSyncOps = 20000;
  Cfg.WorkPerSync = 4;
  return Cfg;
}

} // namespace

TEST(MacroReplay, NativeReplayMatchesProfileShape) {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  ThinLockManager Locks(Monitors);
  ScopedThreadAttachment Main(Registry, "main");

  const BenchmarkProfile *P = findProfile("javac");
  ASSERT_NE(P, nullptr);
  ReplayResult R =
      replayProfile(*P, Locks, TheHeap, Main.context(), quickConfig());

  EXPECT_GE(R.SyncOperations, 1000u);
  EXPECT_GT(R.ObjectsCreated, R.SynchronizedObjects);
  EXPECT_GT(R.ElapsedNanos, 0u);
  // Measured depth mix tracks the profile (coarsely; small sample).
  EXPECT_NEAR(R.depthFraction(0), P->DepthMix[0], 0.08);
}

TEST(MacroReplay, NativeReplayRunsOnAllProtocols) {
  const BenchmarkProfile *P = findProfile("crema");
  ASSERT_NE(P, nullptr);

  {
    Heap TheHeap;
    ThreadRegistry Registry;
    MonitorTable Monitors;
    ThinLockManager Locks(Monitors);
    ScopedThreadAttachment Main(Registry);
    ReplayResult R =
        replayProfile(*P, Locks, TheHeap, Main.context(), quickConfig());
    EXPECT_GE(R.SyncOperations, 1000u);
  }
  {
    Heap TheHeap;
    ThreadRegistry Registry;
    MonitorCache Cache(128);
    ScopedThreadAttachment Main(Registry);
    ReplayResult R =
        replayProfile(*P, Cache, TheHeap, Main.context(), quickConfig());
    EXPECT_GE(R.SyncOperations, 1000u);
  }
  {
    Heap TheHeap;
    ThreadRegistry Registry;
    HotLocks Hot(32, 4, 128);
    ScopedThreadAttachment Main(Registry);
    ReplayResult R =
        replayProfile(*P, Hot, TheHeap, Main.context(), quickConfig());
    EXPECT_GE(R.SyncOperations, 1000u);
  }
}

TEST(MacroReplay, ReplayIsDeterministicPerSeed) {
  const BenchmarkProfile *P = findProfile("trans");
  auto runOnce = [&] {
    Heap TheHeap;
    ThreadRegistry Registry;
    MonitorTable Monitors;
    ThinLockManager Locks(Monitors);
    ScopedThreadAttachment Main(Registry);
    return replayProfile(*P, Locks, TheHeap, Main.context(), quickConfig());
  };
  ReplayResult A = runOnce();
  ReplayResult B = runOnce();
  EXPECT_EQ(A.SyncOperations, B.SyncOperations);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(A.DepthCounts[I], B.DepthCounts[I]);
  EXPECT_EQ(A.ObjectsCreated, B.ObjectsCreated);
}

TEST(MacroReplay, ThinLockReplayLeavesEverythingUnlocked) {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks(Monitors, &Stats);
  ScopedThreadAttachment Main(Registry);
  const BenchmarkProfile *P = findProfile("wingdis");
  replayProfile(*P, Locks, TheHeap, Main.context(), quickConfig());
  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_EQ(S.Acquisitions, S.Releases);
  // Single-threaded replay: no contention, no inflation.
  EXPECT_EQ(S.inflations(), 0u);
  EXPECT_EQ(Monitors.liveMonitorCount(), 0u);
}

//===----------------------------------------------------------------------===//
// VM replay
//===----------------------------------------------------------------------===//

TEST(MacroReplay, VmReplayRunsAndCounts) {
  vm::VM Vm;
  vm::NativeLibrary Library(Vm);
  ScopedThreadAttachment Main(Vm.threads(), "main");
  const BenchmarkProfile *P = findProfile("javalex");
  ReplayConfig Cfg = quickConfig();
  Cfg.MaxSyncOps = 4000;
  ReplayResult R =
      replayProfileOnVm(Vm, Library, *P, Main.context(), Cfg);
  EXPECT_GE(R.SyncOperations, 1000u);
  EXPECT_GT(R.ElapsedNanos, 0u);
  EXPECT_GT(R.DepthCounts[0], 0u);
}

//===----------------------------------------------------------------------===//
// Native micro kernels
//===----------------------------------------------------------------------===//

TEST(MicroKernels, NativeKernelsReturnTheirCounts) {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  ThinLockManager Locks(Monitors);
  ScopedThreadAttachment Main(Registry);
  const ClassInfo &Class = TheHeap.classes().registerClass("K", 0);
  Object *Obj = TheHeap.allocate(Class);

  EXPECT_EQ(runNativeNoSync(1000), 1000u);
  EXPECT_EQ(runNativeSync(Locks, Obj, Main.context(), 1000), 1000u);
  EXPECT_EQ(runNativeNestedSync(Locks, Obj, Main.context(), 1000), 1000u);
  EXPECT_EQ(runNativeMixedSync(Locks, Obj, Main.context(), 500), 500u);
  EXPECT_EQ(runNativeCall(1000), 1000u);
  EXPECT_EQ(runNativeCallSync(Locks, Obj, Main.context(), 1000), 1000u);
  EXPECT_EQ(runNativeNestedCallSync(Locks, Obj, Main.context(), 1000),
            1000u);
  EXPECT_FALSE(Locks.holdsLock(Obj, Main.context()));
}

TEST(MicroKernels, MultiSyncTouchesAllObjects) {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks(Monitors, &Stats);
  ScopedThreadAttachment Main(Registry);
  const ClassInfo &Class = TheHeap.classes().registerClass("K", 0);
  std::vector<Object *> Objects;
  for (int I = 0; I < 10; ++I)
    Objects.push_back(TheHeap.allocate(Class));
  uint64_t Count =
      runNativeMultiSync(Locks, Objects, Main.context(), 100);
  EXPECT_EQ(Count, 1000u);
  LockStats::Snapshot S = Stats.snapshot();
  EXPECT_EQ(S.Acquisitions, 1000u);
  EXPECT_EQ(S.FastPath, 1000u);
}

TEST(MicroKernels, ThreadsKernelKeepsTheInvariant) {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  ThinLockManager Locks(Monitors);
  const ClassInfo &Class = TheHeap.classes().registerClass("K", 0);
  Object *Obj = TheHeap.allocate(Class);
  uint64_t Total =
      runNativeThreads(Locks, Obj, Registry, /*NumThreads=*/4,
                       /*ItersPerThread=*/1000);
  EXPECT_EQ(Total, 4000u);
  ScopedThreadAttachment Main(Registry);
  EXPECT_FALSE(Locks.holdsLock(Obj, Main.context()));
}

TEST(MicroKernels, KernelsWorkOnBaselines) {
  Heap TheHeap;
  ThreadRegistry Registry;
  ScopedThreadAttachment Main(Registry);
  const ClassInfo &Class = TheHeap.classes().registerClass("K", 0);
  Object *Obj = TheHeap.allocate(Class);

  MonitorCache Cache(64);
  EXPECT_EQ(runNativeSync(Cache, Obj, Main.context(), 500), 500u);
  EXPECT_EQ(runNativeNestedSync(Cache, Obj, Main.context(), 500), 500u);

  HotLocks Hot(32, 4, 64);
  Object *Obj2 = TheHeap.allocate(Class);
  EXPECT_EQ(runNativeSync(Hot, Obj2, Main.context(), 500), 500u);
  EXPECT_TRUE(Hot.isHot(Obj2)); // 500 cycles crossed the threshold.
}

namespace {
/// Runs 8 warm-up rounds of MultiSync over \p N fresh objects, then one
/// more, and returns the protocol's stats before and after that round.
template <typename P>
auto multiSyncRoundStats(P &Protocol, size_t N) {
  Heap TheHeap;
  ThreadRegistry Registry;
  ScopedThreadAttachment Main(Registry);
  const ClassInfo &Class = TheHeap.classes().registerClass("K", 0);
  std::vector<Object *> Objects;
  for (size_t I = 0; I < N; ++I)
    Objects.push_back(TheHeap.allocate(Class));
  runNativeMultiSync(Protocol, Objects, Main.context(), /*Iterations=*/8);
  auto Before = Protocol.stats();
  runNativeMultiSync(Protocol, Objects, Main.context(), /*Iterations=*/1);
  return std::make_pair(Before, Protocol.stats());
}
} // namespace

// Figure 4's two cliffs as exact counts at the registry's default sizes,
// HotLocks(32, 4, 128) and MonitorCache(128), the sizes the benches use.
// IBM112 promotes the first 32 objects and sends the rest through its
// cache; at n = 256 every mapping is swept before its use count reaches
// the threshold, so nothing is promoted and the cache sweeps twice per
// round, as JDK111's does.
TEST(MicroKernels, MultiSyncCliffCountsAtRegistryDefaultSizes) {
  struct HotRow {
    size_t N;
    uint64_t Promotions, CacheOps, HotOps, Sweeps;
  };
  for (HotRow Row : {HotRow{32, 32, 0, 64, 0}, HotRow{48, 32, 32, 64, 0},
                     HotRow{128, 32, 192, 64, 0},
                     HotRow{256, 0, 512, 0, 2}}) {
    ProtocolMaker<HotLocks> Maker{ProtocolConfig()};
    auto [Before, After] = multiSyncRoundStats(Maker.Protocol, Row.N);
    EXPECT_EQ(After.Promotions, Row.Promotions) << "IBM112 n=" << Row.N;
    EXPECT_EQ(After.CachePathOps - Before.CachePathOps, Row.CacheOps)
        << "IBM112 n=" << Row.N;
    EXPECT_EQ(After.HotPathOps - Before.HotPathOps, Row.HotOps)
        << "IBM112 n=" << Row.N;
    EXPECT_EQ(After.Cache.Sweeps - Before.Cache.Sweeps, Row.Sweeps)
        << "IBM112 n=" << Row.N;
  }

  struct CacheRow {
    size_t N;
    uint64_t Hits, Misses, Sweeps;
  };
  for (CacheRow Row : {CacheRow{128, 256, 0, 0}, CacheRow{256, 256, 256, 2}}) {
    ProtocolMaker<MonitorCache> Maker{ProtocolConfig()};
    auto [Before, After] = multiSyncRoundStats(Maker.Protocol, Row.N);
    EXPECT_EQ(After.Hits - Before.Hits, Row.Hits) << "JDK111 n=" << Row.N;
    EXPECT_EQ(After.Misses - Before.Misses, Row.Misses)
        << "JDK111 n=" << Row.N;
    EXPECT_EQ(After.Sweeps - Before.Sweeps, Row.Sweeps)
        << "JDK111 n=" << Row.N;
    EXPECT_EQ(After.PoolGrowths, 0u) << "JDK111 n=" << Row.N;
  }
}
