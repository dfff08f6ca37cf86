//===- workload/MacroReplay.h - Profile-driven macro replay ----*- C++ -*-===//
///
/// \file
/// Replays a macro-benchmark locking profile (workload/Profiles.h)
/// against any synchronization protocol and times it — the engine behind
/// the Table 1 / Figure 3 characterization and the Figure 5 speedup
/// comparison.
///
/// A replay performs the profile's object allocations and its
/// synchronization operations with the profile's nesting-depth mix and a
/// skewed object-popularity distribution (re-synchronization on the same
/// objects is common: the median benchmark synchronizes each synchronized
/// object 22.7 times).  Between synchronizations it executes a calibrated
/// amount of plain computation so that, as in the real programs, locking
/// is a large-but-not-total fraction of run time.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_WORKLOAD_MACROREPLAY_H
#define THINLOCKS_WORKLOAD_MACROREPLAY_H

#include "core/LockProtocol.h"
#include "heap/Heap.h"
#include "support/SplitMix64.h"
#include "support/Timer.h"
#include "threads/ThreadContext.h"
#include "threads/ThreadRegistry.h"
#include "workload/Profiles.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace thinlocks {
namespace vm {
class VM;
class NativeLibrary;
} // namespace vm

namespace workload {

/// Replay tuning knobs.
struct ReplayConfig {
  /// Every profile count is divided by this (the paper's programs run
  /// minutes; replays run milliseconds).
  uint64_t ScaleDivisor = 64;
  /// Units of plain computation between synchronizations, calibrating
  /// the sync-time fraction.  0 makes the replay sync-bound.
  uint32_t WorkPerSync = 24;
  uint64_t Seed = 42;
  /// Floor on replayed sync operations after scaling.
  uint64_t MinSyncOps = 2000;
  /// Cap on replayed sync operations (0 = none).
  uint64_t MaxSyncOps = 0;
};

/// What a replay actually did (compare against the profile).
struct ReplayResult {
  uint64_t ObjectsCreated = 0;
  uint64_t SynchronizedObjects = 0;
  uint64_t SyncOperations = 0;
  /// Lock operations by depth 1 / 2 / 3 / 4+ (the Figure 3 buckets).
  uint64_t DepthCounts[4] = {0, 0, 0, 0};
  uint64_t ElapsedNanos = 0;

  double depthFraction(unsigned Bucket) const {
    uint64_t Total =
        DepthCounts[0] + DepthCounts[1] + DepthCounts[2] + DepthCounts[3];
    if (Total == 0)
      return 0.0;
    return static_cast<double>(DepthCounts[Bucket]) /
           static_cast<double>(Total);
  }
};

/// Builds a per-profile configuration that replays roughly
/// \p TargetSyncOps operations while preserving the profile's *natural*
/// ratios (syncs per synchronized object, allocations per sync): the
/// divisor adapts to the profile size instead of flooring the op count.
/// Profiles smaller than the target replay at full scale.
ReplayConfig scaledConfigFor(const BenchmarkProfile &Profile,
                             uint64_t TargetSyncOps, uint32_t WorkPerSync);

/// Samples the depth of one synchronization *sequence* such that the
/// per-operation depth fractions match \p Profile's Figure 3 mix.
/// \p U is uniform in [0,1).
uint32_t sampleSequenceDepth(const BenchmarkProfile &Profile, double U);

/// Skewed index in [0, Count): popular objects are synchronized far more
/// often than unpopular ones.
size_t sampleObjectIndex(size_t Count, SplitMix64 &Rng);

/// \p Units rounds of cheap integer mixing (out of line, unelidable).
uint32_t replayWork(uint32_t Seed, uint32_t Units);

/// Replays \p Profile on \p Protocol.  Single-threaded (the paper's
/// macro-benchmarks are all single-threaded programs — measuring exactly
/// that "performance tax" is the point of the experiment).
template <SyncProtocol P>
ReplayResult replayProfile(const BenchmarkProfile &Profile, P &Protocol,
                           Heap &TheHeap, const ThreadContext &Thread,
                           const ReplayConfig &Cfg = ReplayConfig()) {
  ReplayResult Result;
  SplitMix64 Rng(Cfg.Seed ^ Profile.SyncOperations);

  uint64_t SyncOps = Profile.SyncOperations / Cfg.ScaleDivisor;
  if (SyncOps < Cfg.MinSyncOps)
    SyncOps = Cfg.MinSyncOps;
  if (Cfg.MaxSyncOps != 0 && SyncOps > Cfg.MaxSyncOps)
    SyncOps = Cfg.MaxSyncOps;

  uint64_t SyncObjects = Profile.SynchronizedObjects / Cfg.ScaleDivisor;
  if (SyncObjects == 0)
    SyncObjects = 1;
  // Objects synchronized are "generally less than a tenth" of all
  // objects; allocate the plain remainder too, spread across the run.
  uint64_t PlainObjects = Profile.ObjectsCreated / Cfg.ScaleDivisor;
  PlainObjects = PlainObjects > SyncObjects ? PlainObjects - SyncObjects : 0;

  const ClassInfo &Class =
      TheHeap.classes().registerClass(Profile.Name, /*SlotCount=*/2);

  StopWatch Watch;

  std::vector<Object *> Population;
  Population.reserve(SyncObjects);
  for (uint64_t I = 0; I < SyncObjects; ++I)
    Population.push_back(TheHeap.allocate(Class));
  Result.SynchronizedObjects = SyncObjects;
  Result.ObjectsCreated = SyncObjects;

  double PlainPerOp =
      SyncOps == 0 ? 0.0
                   : static_cast<double>(PlainObjects) /
                         static_cast<double>(SyncOps);
  double PlainDebt = 0.0;
  uint32_t WorkAccumulator = static_cast<uint32_t>(Cfg.Seed);

  uint64_t OpsDone = 0;
  while (OpsDone < SyncOps) {
    Object *Obj = Population[sampleObjectIndex(Population.size(), Rng)];
    uint32_t Depth = sampleSequenceDepth(Profile, Rng.nextDouble());
    if (Depth > SyncOps - OpsDone)
      Depth = static_cast<uint32_t>(SyncOps - OpsDone);
    if (Depth == 0)
      Depth = 1;

    for (uint32_t D = 0; D < Depth; ++D) {
      Protocol.lock(Obj, Thread);
      unsigned Bucket = D >= 3 ? 3 : D;
      ++Result.DepthCounts[Bucket];
      WorkAccumulator = replayWork(WorkAccumulator, Cfg.WorkPerSync);
    }
    for (uint32_t D = 0; D < Depth; ++D)
      Protocol.unlock(Obj, Thread);
    OpsDone += Depth;

    PlainDebt += PlainPerOp * Depth;
    while (PlainDebt >= 1.0) {
      TheHeap.allocate(Class);
      ++Result.ObjectsCreated;
      PlainDebt -= 1.0;
    }
  }
  Result.SyncOperations = OpsDone;
  Result.ElapsedNanos = Watch.elapsedNanos();
  (void)WorkAccumulator;
  return Result;
}

/// replayWork() units replayProfileContended()'s hammer threads spend
/// holding the hot lock — long enough that contenders actually collide
/// and park.
constexpr uint32_t WorkPerHold = 64;

/// Settings for replayProfileContended().
struct ContendedReplayConfig {
  ReplayConfig Replay;
  /// Extra threads hammering the shared hot object.
  unsigned Contenders = 3;
  /// Large enough that, even on a single-CPU machine where contention
  /// only arises when the scheduler preempts a holder mid-critical-
  /// section, each thread spans several scheduling quanta.
  uint64_t HammerOpsPerThread = 40000;
};

/// What replayProfileContended() did beyond the plain replay.
struct ContendedReplayResult {
  ReplayResult Replay;
  /// The deliberately contended object (class "HotShared").  Tracing
  /// and profiling experiments use it as ground truth: a hot-lock
  /// report over the run must rank it first.
  Object *HotObject = nullptr;
  uint64_t HammerOps = 0;
};

/// Contended variant for the observability experiments (DESIGN.md §10):
/// the main thread replays \p Profile exactly as replayProfile() does
/// while Cfg.Contenders extra registry-attached threads hammer one
/// shared object of class "HotShared".  The replay population keeps the
/// profile's single-threaded character; the hot object supplies a known
/// answer for contention profilers to find.
template <SyncProtocol P>
ContendedReplayResult
replayProfileContended(const BenchmarkProfile &Profile, P &Protocol,
                       Heap &TheHeap, ThreadRegistry &Registry,
                       const ThreadContext &MainThread,
                       const ContendedReplayConfig &Cfg =
                           ContendedReplayConfig()) {
  ContendedReplayResult Out;
  const ClassInfo &HotClass =
      TheHeap.classes().registerClass("HotShared", /*SlotCount=*/1);
  Object *Hot = TheHeap.allocate(HotClass);
  Out.HotObject = Hot;

  std::atomic<uint64_t> Ops{0};
  // Start gate: without it the hammer loops are short enough that each
  // thread can finish before the next one is even spawned — serialized
  // "contenders" that never collide.
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  Threads.reserve(Cfg.Contenders);
  for (unsigned T = 0; T < Cfg.Contenders; ++T) {
    Threads.emplace_back([&Protocol, &Registry, &Ops, &Go, &Cfg, Hot, T] {
      ScopedThreadAttachment Attach(Registry, "hammer");
      const ThreadContext &Me = Attach.context();
      if (!Me.isValid())
        return;
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      uint32_t Acc = T + 1;
      for (uint64_t I = 0; I < Cfg.HammerOpsPerThread; ++I) {
        Protocol.lock(Hot, Me);
        Acc = replayWork(Acc, WorkPerHold);
        Protocol.unlock(Hot, Me);
      }
      Ops.fetch_add(Cfg.HammerOpsPerThread, std::memory_order_relaxed);
    });
  }
  Go.store(true, std::memory_order_release);
  Out.Replay =
      replayProfile(Profile, Protocol, TheHeap, MainThread, Cfg.Replay);
  for (std::thread &T : Threads)
    T.join();
  Out.HammerOps = Ops.load(std::memory_order_relaxed);
  return Out;
}

/// VM-flavoured replay: the same profile, but the synchronization happens
/// through interpreted calls to the thread-safe library classes (Vector /
/// Hashtable / BitSet) on \p Vm, per the profile's LibraryFraction, with
/// bare lock/unlock sequences for the rest.  Slower and closer to the
/// paper's environment; used by the lock_census example and integration
/// tests.
ReplayResult replayProfileOnVm(vm::VM &Vm, vm::NativeLibrary &Library,
                               const BenchmarkProfile &Profile,
                               const ThreadContext &Thread,
                               const ReplayConfig &Cfg = ReplayConfig());

} // namespace workload
} // namespace thinlocks

#endif // THINLOCKS_WORKLOAD_MACROREPLAY_H
