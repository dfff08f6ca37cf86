//===- bench/bench_deflation.cpp - Deflation ablation ---------------------===//
//
// Ablation for the paper's permanence-of-inflation design decision
// (§2.3: "Once an object's lock is inflated, it remains inflated for the
// lifetime of the object.  This discipline prevents thrashing between
// the thin and fat states.") versus the follow-up alternative
// (DeflationPolicy::WhenQuiescent, cf. Tasuki locks).
//
// Two scenarios expose the two sides of the tradeoff:
//
//  Recovery — an object suffers ONE contention burst, then is used by a
//    single thread forever after.  Permanent inflation pays the fat-lock
//    cost on every subsequent operation; deflation returns to thin-lock
//    speed.  (Deflating should win clearly.)
//
//  Thrash — the object is *repeatedly* contended: bursts of two threads
//    separated by solo phases.  Deflation converts every burst into an
//    inflate/deflate cycle plus bounced lookups.  (The gap narrows or
//    reverses; counters show the cycle count.)
//
//===----------------------------------------------------------------------===//

#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "threads/ThreadRegistry.h"
#include "workload/MicroBench.h"

#include "BenchContext.h"

#include <benchmark/benchmark.h>

using namespace thinlocks;
using namespace thinlocks::workload;

namespace {

struct Fixture {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  ThinLockManager Locks;
  Object *Obj;

  explicit Fixture(DeflationPolicy Policy)
      : Locks(Monitors, &Stats, Policy),
        Obj(TheHeap.allocate(TheHeap.classes().registerClass("B", 0))) {}

  /// One contention burst: a second thread fights for the object,
  /// guaranteeing inflation.
  void contentionBurst() {
    ScopedThreadAttachment Me(Registry);
    Locks.lock(Obj, Me.context());
    std::atomic<bool> Started{false};
    std::thread Contender([&] {
      ScopedThreadAttachment Other(Registry);
      Started.store(true, std::memory_order_release);
      Locks.lock(Obj, Other.context());
      Locks.unlock(Obj, Other.context());
    });
    while (!Started.load(std::memory_order_acquire))
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    Locks.unlock(Obj, Me.context());
    Contender.join();
  }
};

void Deflation_Recovery(benchmark::State &State, DeflationPolicy Policy) {
  Fixture F(Policy);
  F.contentionBurst(); // Inflate once.
  ScopedThreadAttachment Me(F.Registry);
  // With deflation, the first unlock below retires the monitor and all
  // further pairs run thin; without it, every pair goes through the fat
  // lock forever.
  constexpr uint64_t Inner = 4096;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        runNativeSync(F.Locks, F.Obj, Me.context(), Inner));
  State.SetItemsProcessed(State.iterations() * Inner);
  State.counters["deflations"] =
      static_cast<double>(F.Stats.snapshot().Deflations);
  State.counters["monitors"] =
      static_cast<double>(F.Monitors.liveMonitorCount());
}

void Deflation_Recovery_Never(benchmark::State &State) {
  Deflation_Recovery(State, DeflationPolicy::Never);
  State.SetLabel("permanent (paper)");
}
void Deflation_Recovery_WhenQuiescent(benchmark::State &State) {
  Deflation_Recovery(State, DeflationPolicy::WhenQuiescent);
  State.SetLabel("deflating");
}

void Deflation_Thrash(benchmark::State &State, DeflationPolicy Policy) {
  Fixture F(Policy);
  ScopedThreadAttachment Me(F.Registry);
  constexpr uint64_t SoloPairs = 256;
  for (auto _ : State) {
    // Burst of contention (re-inflates under the deflating policy)...
    F.contentionBurst();
    // ...followed by a solo phase.
    benchmark::DoNotOptimize(
        runNativeSync(F.Locks, F.Obj, Me.context(), SoloPairs));
  }
  State.SetItemsProcessed(State.iterations() * SoloPairs);
  LockStats::Snapshot S = F.Stats.snapshot();
  State.counters["inflations"] = static_cast<double>(S.inflations());
  State.counters["deflations"] = static_cast<double>(S.Deflations);
  State.counters["monitors"] =
      static_cast<double>(F.Monitors.liveMonitorCount());
}

void Deflation_Thrash_Never(benchmark::State &State) {
  Deflation_Thrash(State, DeflationPolicy::Never);
  State.SetLabel("permanent (paper)");
}
void Deflation_Thrash_WhenQuiescent(benchmark::State &State) {
  Deflation_Thrash(State, DeflationPolicy::WhenQuiescent);
  State.SetLabel("deflating");
}

BENCHMARK(Deflation_Recovery_Never);
BENCHMARK(Deflation_Recovery_WhenQuiescent);
BENCHMARK(Deflation_Thrash_Never)->Unit(benchmark::kMicrosecond);
BENCHMARK(Deflation_Thrash_WhenQuiescent)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
