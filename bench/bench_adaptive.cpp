//===- bench/bench_adaptive.cpp - Adaptive policy engine A/B --------------===//
//
// A/B harness for the profiler->policy loop (DESIGN.md §13): the same
// workload run with a static SpinPolicy versus with an
// AdaptivePolicyEngine ticking between rounds and publishing per-object
// decisions into the lock slow paths.
//
// Three scenarios:
//
//  Fastpath — single-thread uncontended lock/unlock pairs.  The policy
//    store is consulted only on slow paths, so wiring the engine must
//    cost nothing here: adaptive and static rows must be within noise.
//
//  ZipfHot — four threads (one more than the evaluation host has CPUs)
//    hammer a Zipf(0.9)-skewed object set, so a few hot objects take
//    almost all the contention while the tail stays thin.  Under
//    DeflationPolicy::WhenQuiescent the hot objects thrash (every burst
//    re-inflates, every quiescent unlock retires) and the contenders'
//    spin ladders convoy on the oversubscribed CPU.  The engine detects
//    the thrash and publishes KeepFat + EagerInflate, converting the
//    churn into a stable fat monitor whose FIFO queue parks waiters off
//    the runqueue.  The per-acquire latency histogram (p50/p99) and the
//    inflation/retirement counters are the comparison: expect the
//    adaptive arm to trade a slightly higher median (hot acquires pay
//    the fat-monitor path) for a much better tail and an
//    orders-of-magnitude drop in inflation/retirement churn.
//
//  PhaseShift — one object runs hot long enough for the engine to
//    promote KeepFat, then the load goes single-threaded.  The engine
//    must expire the decision once the object is cold and speculatively
//    retire the now-quiescent monitor, so the timed solo phase runs at
//    thin-lock speed again.  Counters prove the round trip (expiries,
//    spec_deflations) and the timed ns/op shows the recovery.
//
//===----------------------------------------------------------------------===//

#include "core/ThinLock.h"
#include "heap/Heap.h"
#include "load/Zipf.h"
#include "obs/LockEventCollector.h"
#include "obs/LockEvents.h"
#include "policy/AdaptivePolicyEngine.h"
#include "support/Histogram.h"
#include "support/SplitMix64.h"
#include "threads/ThreadRegistry.h"
#include "workload/MicroBench.h"

#include "BenchContext.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <thread>

using namespace thinlocks;
using namespace thinlocks::workload;

namespace {

struct Fixture {
  Heap TheHeap;
  ThreadRegistry Registry;
  MonitorTable Monitors;
  LockStats Stats;
  obs::LockEventCollector Collector;
  ThinLockManager Locks;
  std::vector<Object *> Objects;
  std::unique_ptr<policy::AdaptivePolicyEngine> Engine;

  Fixture(bool Adaptive, size_t NumObjects)
      : Collector(Registry),
        Locks(Monitors, &Stats, DeflationPolicy::WhenQuiescent) {
    const ClassInfo &Cls = TheHeap.classes().registerClass("Hot", 0);
    Objects.reserve(NumObjects);
    for (size_t I = 0; I < NumObjects; ++I)
      Objects.push_back(TheHeap.allocate(Cls));
    if (Adaptive) {
      policy::PolicyConfig Cfg;
      // The fixture owns the heap and every object outlives the engine,
      // which is exactly the lifetime contract speculative deflation
      // asserts.
      Cfg.SpeculativeDeflation = true;
      Engine = std::make_unique<policy::AdaptivePolicyEngine>(Collector,
                                                              Monitors, Cfg);
      Locks.setPolicyStore(&Engine->policyStore());
    }
  }

  /// One sampling step.  The static arm still drains the collector so
  /// both arms pay the same tracing/drain overhead; only the policy
  /// loop itself differs.
  void tick() {
    if (Engine)
      Engine->tick();
    else
      Collector.drain();
  }
};

/// Ranks below this hold the lock across a yield (a "long" service).
constexpr size_t HotRanks = 4;
/// Contender threads running alongside the timed thread.  More runnable
/// threads than the 1-CPU host has cores is the point: a convoy forms on
/// the hot ranks, and yield-spinning waiters keep stealing the quantum
/// from whichever thread holds the lock.
constexpr unsigned Contenders = 3;

/// One thread's share of a contention round: \p Ops Zipf-sampled
/// lock/increment/unlock operations, optionally timing each acquire.
/// Every 8th hold of a hot rank yields the CPU *while the lock is held*:
/// on the 1-CPU evaluation host free-running loops would otherwise each
/// finish inside their own scheduling quantum and never collide — the
/// mid-hold yield donates the quantum to a peer, which then piles onto
/// the held hot object.
uint64_t zipfOps(Fixture &F, const load::ZipfSampler &Zipf, SplitMix64 &Rng,
                 const ThreadContext &Me, uint64_t Ops,
                 LatencyHistogram *Acquire) {
  uint64_t Counter = 0;
  for (uint64_t I = 0; I < Ops; ++I) {
    size_t Rank = Zipf.sample(Rng);
    Object *Obj = F.Objects[Rank];
    if (Acquire) {
      uint64_t Start = obs::monotonicNanos();
      F.Locks.lock(Obj, Me);
      Acquire->record(obs::monotonicNanos() - Start);
    } else {
      F.Locks.lock(Obj, Me);
    }
    ++Counter;
    if (Rank < HotRanks && I % 8 == 0)
      std::this_thread::yield();
    F.Locks.unlock(Obj, Me);
  }
  return consumeValue(Counter);
}

/// One multi-thread round followed by one engine tick.  \p Seed varies
/// the contenders' sample streams between rounds.
void zipfRound(Fixture &F, const load::ZipfSampler &Zipf, SplitMix64 &MainRng,
               const ThreadContext &Me, uint64_t Ops, uint64_t Seed,
               LatencyHistogram *Acquire) {
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Threads;
  Threads.reserve(Contenders);
  for (unsigned T = 0; T < Contenders; ++T) {
    Threads.emplace_back([&F, &Zipf, Seed, T, Ops, &Ready] {
      ScopedThreadAttachment Other(F.Registry);
      SplitMix64 Rng(0x9E3779B97F4A7C15ull ^ (Seed * Contenders + T));
      Ready.fetch_add(1, std::memory_order_release);
      zipfOps(F, Zipf, Rng, Other.context(), Ops, nullptr);
    });
  }
  while (Ready.load(std::memory_order_acquire) < Contenders)
    std::this_thread::yield();
  zipfOps(F, Zipf, MainRng, Me, Ops, Acquire);
  for (std::thread &T : Threads)
    T.join();
  F.tick();
}

/// One guaranteed-inflation contention burst (cf. bench_deflation).
void contentionBurst(Fixture &F, Object *Obj) {
  ScopedThreadAttachment Me(F.Registry);
  F.Locks.lock(Obj, Me.context());
  std::atomic<bool> Started{false};
  std::thread Contender([&F, Obj, &Started] {
    ScopedThreadAttachment Other(F.Registry);
    Started.store(true, std::memory_order_release);
    F.Locks.lock(Obj, Other.context());
    F.Locks.unlock(Obj, Other.context());
  });
  while (!Started.load(std::memory_order_acquire))
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::microseconds(200));
  F.Locks.unlock(Obj, Me.context());
  Contender.join();
}

//===----------------------------------------------------------------------===//
// Fastpath: adaptive wiring must be free off the slow paths.
//===----------------------------------------------------------------------===//

void Adaptive_Fastpath(benchmark::State &State, bool Adaptive) {
  Fixture F(Adaptive, 1);
  obs::setTracing(false);
  ScopedThreadAttachment Me(F.Registry);
  constexpr uint64_t Inner = 4096;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        runNativeSync(F.Locks, F.Objects[0], Me.context(), Inner));
  State.SetItemsProcessed(State.iterations() * Inner);
}

void Adaptive_Fastpath_Static(benchmark::State &State) {
  Adaptive_Fastpath(State, false);
  State.SetLabel("static");
}
void Adaptive_Fastpath_Adaptive(benchmark::State &State) {
  Adaptive_Fastpath(State, true);
  State.SetLabel("adaptive");
}

//===----------------------------------------------------------------------===//
// ZipfHot: thrashing hot objects, static vs adaptive.
//===----------------------------------------------------------------------===//

void Adaptive_ZipfHot(benchmark::State &State, bool Adaptive) {
  constexpr size_t NumObjects = 32;
  constexpr double Theta = 0.9;
  constexpr uint64_t OpsPerRound = 512;
  constexpr uint64_t WarmupRounds = 8;

  Fixture F(Adaptive, NumObjects);
  obs::setTracing(true);
  load::ZipfSampler Zipf(NumObjects, Theta);
  ScopedThreadAttachment Me(F.Registry);
  SplitMix64 MainRng(1);
  LatencyHistogram Acquire;

  // Warm-up: both arms run the same rounds; in the adaptive arm this is
  // where the engine earns its promote dwell, so the timed rounds below
  // measure the published steady state, not the learning transient.
  uint64_t Seed = 0;
  for (uint64_t Round = 0; Round < WarmupRounds; ++Round)
    zipfRound(F, Zipf, MainRng, Me.context(), OpsPerRound, ++Seed, nullptr);
  const uint64_t WarmupInflations = F.Stats.inflations();

  for (auto _ : State)
    zipfRound(F, Zipf, MainRng, Me.context(), OpsPerRound, ++Seed, &Acquire);
  State.SetItemsProcessed(State.iterations() * OpsPerRound);

  State.counters["p50_acquire_ns"] =
      static_cast<double>(Acquire.quantile(0.50));
  State.counters["p99_acquire_ns"] =
      static_cast<double>(Acquire.quantile(0.99));
  State.counters["mean_acquire_ns"] = static_cast<double>(Acquire.mean());
  State.counters["timed_inflations"] =
      static_cast<double>(F.Stats.inflations() - WarmupInflations);
  State.counters["monitor_retirements"] =
      static_cast<double>(F.Monitors.retirementEvents());
  if (F.Engine) {
    policy::PolicyCounters C = F.Engine->counters();
    State.counters["keep_fat"] = static_cast<double>(C.KeepFatDecisions);
    State.counters["promotions"] = static_cast<double>(C.Promotions);
    State.counters["demotions"] = static_cast<double>(C.Demotions);
  }
  obs::setTracing(false);
}

void Adaptive_ZipfHot_Static(benchmark::State &State) {
  Adaptive_ZipfHot(State, false);
  State.SetLabel("static");
}
void Adaptive_ZipfHot_Adaptive(benchmark::State &State) {
  Adaptive_ZipfHot(State, true);
  State.SetLabel("adaptive");
}

//===----------------------------------------------------------------------===//
// PhaseShift: promote under thrash, then recover to thin when cold.
//===----------------------------------------------------------------------===//

void Adaptive_PhaseShift(benchmark::State &State) {
  Fixture F(/*Adaptive=*/true, 1);
  obs::setTracing(true);
  Object *Obj = F.Objects[0];

  // Hot phase: repeated inflate/deflate bursts until KeepFat publishes.
  for (int Round = 0; Round < 12; ++Round) {
    contentionBurst(F, Obj);
    F.tick();
  }
  // Cold phase: no activity.  The engine walks the object to cold
  // expiry, drops the KeepFat decision, and its deflation scan retires
  // the quiescent monitor (tracking state itself is dropped at 2x).
  const unsigned ColdTicks = policy::AdaptivePolicyEngine::ColdTicks;
  for (unsigned Round = 0; Round < 2 * ColdTicks + 2; ++Round)
    F.tick();

  // Timed: solo pairs after recovery must run on the thin fast path.
  ScopedThreadAttachment Me(F.Registry);
  constexpr uint64_t Inner = 4096;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        runNativeSync(F.Locks, Obj, Me.context(), Inner));
  State.SetItemsProcessed(State.iterations() * Inner);

  policy::PolicyCounters C = F.Engine->counters();
  State.counters["keep_fat"] = static_cast<double>(C.KeepFatDecisions);
  State.counters["expiries"] = static_cast<double>(C.Expiries);
  State.counters["spec_deflations"] =
      static_cast<double>(C.SpeculativeDeflations);
  State.counters["live_monitors"] =
      static_cast<double>(F.Monitors.liveMonitorCount());
  State.SetLabel("adaptive");
  obs::setTracing(false);
}

BENCHMARK(Adaptive_Fastpath_Static);
BENCHMARK(Adaptive_Fastpath_Adaptive);
BENCHMARK(Adaptive_ZipfHot_Static)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(48);
BENCHMARK(Adaptive_ZipfHot_Adaptive)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(48);
BENCHMARK(Adaptive_PhaseShift);

} // namespace

BENCHMARK_MAIN();
